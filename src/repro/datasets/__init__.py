"""Dataset generators: the synthetic Flights substitute and microbenchmark
distributions (S22-S23); the paper's nine Flights queries are in
:mod:`repro.datasets.queries`."""

from repro.datasets.flights import (
    DEFAULT_AIRLINES,
    AirlineSpec,
    FlightsConfig,
    airports_by_selectivity,
    generate_flights,
    make_flights_scramble,
)
from repro.datasets.synthetic import (
    DATASET_GENERATORS,
    clustered_data,
    lognormal_data,
    make_synthetic_scramble,
    outlier_data,
    two_point_data,
    uniform_data,
    write_synthetic_block_store,
)

__all__ = [
    "AirlineSpec",
    "DATASET_GENERATORS",
    "DEFAULT_AIRLINES",
    "FlightsConfig",
    "airports_by_selectivity",
    "clustered_data",
    "generate_flights",
    "lognormal_data",
    "make_flights_scramble",
    "make_synthetic_scramble",
    "outlier_data",
    "two_point_data",
    "uniform_data",
    "write_synthetic_block_store",
]
