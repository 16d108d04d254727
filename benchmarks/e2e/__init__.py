"""End-to-end host-time benchmark of the simulated RM day.

``python -m benchmarks.e2e`` runs each workload in a fresh child
interpreter and prints every metric by name with its unit; see
``benchmarks/e2e/README.md``.  Only the standard library is imported at
package level, so ``check`` runs without the simulator on the path.
"""
