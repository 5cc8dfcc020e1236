"""The repo's benchmark: see README.md here and BENCHMARK.json at the root."""
