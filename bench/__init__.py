"""Benchmark of the thinjunction package: workloads, tracing and gates."""
