"""Compatibility shim: the paper's queries are :mod:`repro.datasets.queries`,
and Tables 5-6 and Figures 6-8 are regenerated by ``benchmarks/paper.py``."""
