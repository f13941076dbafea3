"""Synthetic Flights dataset (substitution for the paper's 606M-row data).

The paper evaluates on the public Flights dataset [1] (32 GiB, 606M tuples,
replicated 5×) with attributes Origin, Airline, DepDelay, DepTime, and
DayOfWeek (§5.1, Table 3).  That dataset is not available offline, so this
generator synthesizes a table with the same schema whose *distributional
properties* reproduce every data-dependent effect the evaluation
exercises:

* **Airlines** — the ten carriers of Figure 7(b) with true mean departure
  delays spaced between ≈6.3 (NW) and ≈11.6 (HP) minutes, in the figure's
  order, so the HAVING-threshold sweep spikes at the same places and F-q9's
  answer (max-delay airline) is HP.
* **Outlier-inflated range** — delays are right-skewed with rare extreme
  values, and the catalog stores deliberately wide bounds ``[-60, 1800]``
  minutes: the regime of Figure 2 where the effective data range is far
  smaller than ``(b − a)``, which is precisely where RangeTrim pays off.
* **Origin airports** — Zipf-distributed popularity over ~200 airports
  (so F-q1's selectivity sweep spans orders of magnitude and F-q5/F-q8
  have sparse bottleneck groups), each with its own delay offset; ORD is
  a popular airport with a true mean delay near 12 (F-q4's threshold-10
  test resolves to "yes").
* **Departure times** — HHMM-coded times whose delay *spread across
  airlines* grows later in the day (per-airline time-sensitivity slopes),
  reproducing F-q3/Figure 8's behaviour: later ``$min_dep_time`` filters
  both sparsify the groups and separate their means.
* **Day of week** — mild weekday effects for F-q6/F-q7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fastframe.catalog import RangeBounds
from repro.fastframe.scramble import DEFAULT_BLOCK_SIZE, Scramble
from repro.fastframe.table import Table

__all__ = [
    "AirlineSpec",
    "FlightsConfig",
    "airports_by_selectivity",
    "generate_flights",
    "make_flights_scramble",
]


@dataclass(frozen=True)
class AirlineSpec:
    """One carrier's ground-truth parameters.

    Attributes
    ----------
    name:
        Two-letter carrier code (as in Figure 7(b)).
    base_delay:
        Mean departure delay in minutes at the average departure time.
    time_slope:
        Additional mean delay per normalized departure-time unit — how
        much this carrier degrades later in the day (drives Figure 8's
        spread growth).
    share:
        Relative market share (flight volume weight).
    """

    name: str
    base_delay: float
    time_slope: float
    share: float


#: Figure 7(b)'s carriers, ordered by true mean delay (NW lowest … HP
#: highest).  Time slopes grow with the base so later-departure filters
#: *increase* the spread between carriers (F-q3's observed behaviour).
DEFAULT_AIRLINES = (
    AirlineSpec("NW", 6.3, 1.0, 1.1),
    AirlineSpec("DL", 6.9, 1.5, 1.4),
    AirlineSpec("TW", 7.4, 2.0, 0.5),
    AirlineSpec("CO", 7.9, 2.5, 0.8),
    AirlineSpec("AA", 8.4, 3.0, 1.3),
    AirlineSpec("UA", 8.9, 3.5, 1.2),
    AirlineSpec("WN", 9.4, 4.0, 1.6),
    AirlineSpec("US", 9.9, 4.5, 1.0),
    AirlineSpec("AS", 10.4, 5.0, 0.4),
    AirlineSpec("HP", 12.4, 6.0, 0.3),
)


@dataclass
class FlightsConfig:
    """Knobs of the synthetic Flights generator."""

    rows: int = 500_000
    airlines: tuple[AirlineSpec, ...] = DEFAULT_AIRLINES
    num_airports: int = 200
    #: Zipf exponent for airport popularity (heavier = sparser tail groups).
    airport_zipf: float = 1.1
    #: Std-dev of per-airport mean-delay offsets (minutes).  Wide enough
    #: that a handful of airports have *negative* true mean delays, making
    #: F-q5's HAVING < 0 non-trivial.
    airport_effect_std: float = 6.0
    #: Per-day-of-week mean offsets (Mon..Sun), minutes.  Gaps are a few
    #: minutes so ordering-style stopping conditions (F-q6, F-q7) can
    #: resolve well before a full scan at 2-5M rows.
    dow_effects: tuple[float, ...] = (-1.5, 0.5, -4.0, 2.5, 7.5, -6.5, 4.5)
    #: Lognormal shape of the right-skewed noise (mean-centred afterwards).
    noise_sigma: float = 1.0
    noise_scale: float = 6.0
    #: Probability and magnitude window of extreme outlier delays.
    outlier_rate: float = 2e-5
    outlier_range: tuple[float, float] = (200.0, 280.0)
    #: Catalog range bounds — deliberately much wider than the bulk of the
    #: data (body std ≈ 13 min vs. a 360-min range), per Figure 2's regime.
    #: The paper's raw data spans minutes-scale bodies with ~1800-min
    #: outlier ranges at 606M rows; this reproduction scales the range so
    #: the same sample-complexity *regimes* (Bernstein terminates early,
    #: Hoeffding needs orders of magnitude more, Exact reads everything)
    #: fall inside a laptop-scale 2-5M-row scramble.
    catalog_bounds: RangeBounds = field(default_factory=lambda: RangeBounds(-60.0, 300.0))
    seed: int = 0


def _airport_names(count: int) -> list[str]:
    """Deterministic three-letter airport codes with ORD among the top."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    names = []
    i = 0
    while len(names) < count:
        code = (
            letters[i % 26]
            + letters[(i // 26) % 26]
            + letters[(i // 676) % 26]
        )
        if code != "ORD":
            names.append(code)
        i += 7  # stride to avoid consecutive-looking codes
    names[2] = "ORD"  # a popular (rank-3) airport, as in F-q1/F-q4
    return names


def _sample_departure_times(rng: np.random.Generator, rows: int) -> np.ndarray:
    """HHMM departure times between 05:00 and 23:59 with rush-hour peaks."""
    # Mixture of a morning peak, an evening peak, and a broad daytime body.
    component = rng.choice(3, size=rows, p=(0.3, 0.3, 0.4))
    minutes = np.empty(rows)
    morning = component == 0
    evening = component == 1
    body = component == 2
    minutes[morning] = rng.normal(8 * 60, 90, morning.sum())
    minutes[evening] = rng.normal(18 * 60, 100, evening.sum())
    minutes[body] = rng.uniform(5 * 60, 24 * 60 - 1, body.sum())
    minutes = np.clip(minutes, 5 * 60, 24 * 60 - 1).astype(np.int64)
    return (minutes // 60) * 100 + minutes % 60


def generate_flights(
    rows: int | None = None,
    seed: int | None = None,
    config: FlightsConfig | None = None,
) -> Table:
    """Generate the synthetic Flights table.

    Parameters
    ----------
    rows, seed:
        Shorthand overrides of the corresponding ``config`` fields.
    config:
        Full generator configuration; defaults to :class:`FlightsConfig`.
    """
    config = config or FlightsConfig()
    if rows is not None:
        config = FlightsConfig(**{**config.__dict__, "rows": rows})
    if seed is not None:
        config = FlightsConfig(**{**config.__dict__, "seed": seed})
    rng = np.random.default_rng(config.seed)
    n = config.rows

    shares = np.array([spec.share for spec in config.airlines])
    airline_idx = rng.choice(len(config.airlines), size=n, p=shares / shares.sum())
    airline_names = np.array([spec.name for spec in config.airlines])

    # Zipf airport popularity with a deterministic shuffle so that rank
    # (popularity) is not correlated with code order.
    ranks = np.arange(1, config.num_airports + 1, dtype=np.float64)
    popularity = ranks ** (-config.airport_zipf)
    airport_idx = rng.choice(config.num_airports, size=n, p=popularity / popularity.sum())
    airport_names = np.array(_airport_names(config.num_airports))

    airport_effects = rng.normal(0.0, config.airport_effect_std, config.num_airports)
    ord_index = int(np.flatnonzero(airport_names == "ORD")[0])
    airport_effects[ord_index] = 3.5  # pushes ORD's true mean near 12

    dow = rng.integers(1, 8, size=n)
    dep_time = _sample_departure_times(rng, n)
    # Normalized time in [-0.5, 0.5] around midday for the slope effect.
    minutes = (dep_time // 100) * 60 + dep_time % 100
    t_norm = (minutes - minutes.mean()) / (24 * 60)

    base = np.array([spec.base_delay for spec in config.airlines])[airline_idx]
    slope = np.array([spec.time_slope for spec in config.airlines])[airline_idx]
    dow_effect = np.array(config.dow_effects)[dow - 1]

    # Right-skewed body noise, winsorized so the *body* stays compact
    # (≈ [-21, +72] minutes at default scale): the catalog range is wide
    # because of the rare outlier component below, not the body's tail —
    # exactly Figure 2's shape, and the regime where RangeTrim's observed
    # extrema are far tighter than the catalog bounds.
    noise = config.noise_scale * (
        rng.lognormal(0.0, config.noise_sigma, n)
        - np.exp(config.noise_sigma ** 2 / 2.0)
    )
    noise = np.clip(noise, -3.5 * config.noise_scale, 12.0 * config.noise_scale)
    outliers = rng.random(n) < config.outlier_rate
    outlier_values = rng.uniform(*config.outlier_range, int(outliers.sum()))

    delay = base + airport_effects[airport_idx] + dow_effect + slope * 8.0 * t_norm + noise
    delay[outliers] += outlier_values
    delay = np.clip(delay, config.catalog_bounds.a, config.catalog_bounds.b)

    table = Table()
    table.add_categorical("Origin", airport_names[airport_idx])
    table.add_categorical("Airline", airline_names[airline_idx])
    table.add_categorical("DayOfWeek", dow)
    table.add_continuous("DepDelay", delay, bounds=config.catalog_bounds)
    table.add_continuous("DepTime", dep_time.astype(np.float64))
    return table


def make_flights_scramble(
    rows: int = 500_000,
    seed: int = 0,
    block_size: int = DEFAULT_BLOCK_SIZE,
    config: FlightsConfig | None = None,
) -> Scramble:
    """Convenience: generate the flights table and scramble it.

    The scramble permutation uses an rng derived from ``seed`` so the whole
    pipeline is reproducible end to end.
    """
    table = generate_flights(rows=rows, seed=seed, config=config)
    return Scramble(table, block_size=block_size, rng=np.random.default_rng(seed + 1))


def airports_by_selectivity(
    scramble: Scramble, count: int = 8
) -> list[tuple[str, float]]:
    """(airport, selectivity) pairs spanning the selectivity spectrum.

    F-q1's Figure 6 sweep varies the Origin filter value; with Zipf
    airport popularity this spans orders of magnitude of selectivity.
    Returns ``count`` airports evenly spaced in popularity rank order.
    """
    categorical = scramble.table.categorical("Origin")
    counts = np.bincount(categorical.codes, minlength=categorical.cardinality)
    ranked = np.argsort(counts)[::-1]
    positions = np.linspace(0, categorical.cardinality - 1, count).astype(int)
    return [
        (categorical.dictionary[int(ranked[pos])], counts[ranked[pos]] / scramble.num_rows)
        for pos in positions
        if counts[ranked[pos]] > 0
    ]
