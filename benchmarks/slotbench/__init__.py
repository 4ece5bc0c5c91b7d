"""Benchmark harness for slotforge: workloads, cut points and traced spans.

Everything here drives the package from outside through its public entry
points; nothing inside `slotforge` is changed to be measured.
"""
