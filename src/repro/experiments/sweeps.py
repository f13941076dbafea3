"""Re-export of :func:`repro.datasets.airports_by_selectivity`.

The frozen ``benchmarks/e2e/run.py`` imports it from here; delete this
module when that benchmark is next changed.
"""

from repro.datasets.flights import airports_by_selectivity

__all__ = ["airports_by_selectivity"]
