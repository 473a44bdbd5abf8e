"""Spread and robustness evaluation of seed sets, plus method comparison.

Infection runs a discrete SIR process on the undirected view: every
infected node tries each susceptible neighbor once with probability mu,
then recovers for good.  The robustness index is the surviving largest
weakly-connected component after deleting the seed set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import baselines
from .errors import DataError
from .graphs import CascadeGraph, largest_component_size
from .seeding import derived_seed
from .training import select_seeds

BUILTIN_METHODS = ("degree", "kshell", "hindex", "leaderrank", "greedy", "random")

REPORT_HEADER = "graph,method,st_mean,st_stderr,r,mu,runs,fraction"

# (run, node) cells one `sir_run` call of `infection_rate` holds at most
CELLS = 1 << 21

# method -> the ``baselines`` function whose scores `select_seeds` ranks;
# looked up on the module at call time, so a wrapped function is the one called
_RANKERS = {"degree": "degree_centrality", "kshell": "kshell", "hindex": "h_index",
           "leaderrank": "leaderrank"}


@dataclass(frozen=True)
class SirConfig:
    mu: float | None = None  # None: per-graph default off the epidemic threshold
    runs: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.mu is not None and not (0.0 <= self.mu <= 1.0):
            raise DataError(f"mu must be in [0, 1], got {self.mu}")
        if self.runs < 1 or self.rng_seed < 0:
            raise DataError("runs must be >= 1 and rng_seed >= 0")


def default_mu(g: CascadeGraph) -> float:
    """1.5x the heterogeneous mean-field epidemic threshold <k>/(<k^2>-<k>),
    capped at 1; keeps spread off the floor on heavy-tailed graphs."""
    deg = g.undirected().out_degrees().astype(np.float64)
    k1 = deg.mean()
    k2 = (deg**2).mean()
    if k2 - k1 <= 0:
        return 1.0
    return float(min(1.0, 1.5 * k1 / (k2 - k1)))


def sir_run(g: CascadeGraph, seeds, mu: float, rng, counts=None) -> int:
    """Outbreaks from one seed set, one per generator in `rng` (a Generator or
    a sequence of them); returns the ever-infected count summed over the runs
    and fills `counts`, if given, with each run's count.  The runs step in
    lockstep on flat ``run * N + node`` keys, each drawing from its own
    generator what it would draw alone.  Recovery is certain after one step,
    so at termination the recovered set is the ever-infected set."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if not rngs:
        raise DataError("sir_run needs at least one generator")
    if not (math.isfinite(mu) and 0.0 <= mu <= 1.0):
        raise DataError(f"mu must be in [0, 1], got {mu}")
    seeds = np.asarray(sorted(set(int(v) for v in seeds)), dtype=np.int64)
    if seeds.size == 0:
        raise DataError("sir_run needs a non-empty seed set")
    if seeds.min() < 0 or seeds.max() >= g.n:
        raise DataError("seed out of range")
    n, runs = g.n, len(rngs)
    indptr, indices = g.undirected().csr
    degree = np.diff(indptr)
    # infection chance of a susceptible node by its count of infected contacts
    chance = 1.0 - (1.0 - mu) ** np.arange(degree.max() + 1)
    susceptible = np.ones(runs * n, dtype=bool)
    infected = (np.arange(runs)[:, None] * n + seeds).ravel()
    susceptible[infected] = False
    while infected.size and mu > 0.0:
        node = infected % n
        deg = degree[node]
        ends = np.cumsum(deg)
        # each contact's position in `indices`: its row start plus its offset in the row
        pos = np.arange(ends[-1]) + np.repeat(indptr[node] - ends + deg, deg)
        keys = np.repeat(infected - node, deg) + indices[pos]
        keys = keys[susceptible[keys]]
        if keys.size == 0:
            break
        # sorted by run, then node: the order each run's draws take
        candidates, exposures = np.unique(keys, return_counts=True)
        if mu < 1.0:
            sizes = np.bincount(candidates // n, minlength=runs).tolist()
            draws = np.concatenate([rngs[r].random(k) for r, k in enumerate(sizes) if k])
            candidates = candidates[draws < chance[exposures]]
        susceptible[candidates] = False
        infected = candidates
    per_run = n - np.count_nonzero(susceptible.reshape(runs, n), axis=1)
    if counts is not None:
        counts[:] = per_run
    return int(per_run.sum())


@lru_cache(maxsize=2)
def _run_seeds(rng_seed: int, start: int, stop: int) -> np.ndarray:
    """(runs, 4) PCG64 state words of runs start..stop-1, as
    ``SeedSequence(seed)`` generates them for ``default_rng(seed)``; every
    method on a graph shares them."""
    words = np.array([np.random.SeedSequence(derived_seed(rng_seed, r)).generate_state(4, np.uint64)
                      for r in range(start, stop)])
    words.flags.writeable = False  # the cache hands the same array to every call
    return words


def _generators(words) -> list:
    """One generator per row of PCG64 state words, each in the state
    ``default_rng(seed)`` starts in, without hashing the seed again."""
    # imported here: loading numpy.random when keynodes is imported adds ~6 MB
    # to every process, also one that never draws
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row  # PCG64 asks for exactly (4, uint64)

    return [np.random.Generator(np.random.PCG64(Words(row))) for row in words]


def infection_rate(g: CascadeGraph, seeds, cfg: SirConfig) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the final infected fraction.

    Each run draws from its own (seed, run) stream, so the estimate is
    independent of run order.  Runs go to `sir_run` in blocks, each block's
    generators made when it runs, so memory does not grow with `cfg.runs`.
    """
    mu = cfg.mu if cfg.mu is not None else default_mu(g)
    counts = np.empty(cfg.runs, dtype=np.int64)
    # a run's generator takes about 1 KB, as much memory as 1024 cells
    block = max(1, CELLS // max(g.n, 1024))
    for start in range(0, cfg.runs, block):
        stop = min(start + block, cfg.runs)
        sir_run(g, seeds, mu, _generators(_run_seeds(cfg.rng_seed, start, stop)), counts[start:stop])
    # statistics over the integer counts first, so the degenerate cases
    # (mu 0 or 1: every run identical) come out exactly |seeds|/N and 0
    mean = counts.mean() / g.n
    stderr = float(counts.std(ddof=1) / g.n / math.sqrt(cfg.runs)) if cfg.runs > 1 else 0.0
    return float(mean), stderr


def robustness(g: CascadeGraph, seeds) -> float:
    """Fraction of nodes in the largest component after removing the seeds;
    lower means the selection fragments the network more."""
    return largest_component_size(g, set(int(v) for v in seeds)) / g.n


@dataclass(frozen=True)
class EvalRow:
    graph: str
    method: str
    st_mean: float
    st_stderr: float
    r: float
    mu: float
    runs: int
    fraction: float


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def method_means(self) -> dict[str, tuple[float, float]]:
        """method -> (mean S_t, mean R) across graphs, in first-row order."""
        out = {}
        for m in dict.fromkeys(r.method for r in self.rows):
            rows = [r for r in self.rows if r.method == m]
            out[m] = (
                float(np.mean([r.st_mean for r in rows])),
                float(np.mean([r.r for r in rows])),
            )
        return out

    def to_csv(self) -> str:
        lines = [REPORT_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.graph},{r.method},{r.st_mean!r},{r.st_stderr!r},{r.r!r},"
                f"{r.mu!r},{r.runs},{r.fraction!r}"
            )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        means = self.method_means()
        width = max([len("method")] + [len(m) for m in means])
        lines = [f"{'method':<{width}}  {'S_t':>8}  {'R':>8}"]
        for m, (st, r) in means.items():
            lines.append(f"{m:<{width}}  {st:>8.4f}  {r:>8.4f}")
        return "\n".join(lines)


def _select_for_method(method, g, gi, k, fraction, d_cover, cfg, scores):
    if method in scores:
        return select_seeds(scores[method][gi], fraction)
    if method in _RANKERS:
        # LeaderRank's score flows fan -> leader, against an edge (src, dst)
        # that carries influence src -> dst
        view = g.reversed() if method == "leaderrank" else g
        return select_seeds(getattr(baselines, _RANKERS[method])(view), fraction)
    if method == "greedy":
        return baselines.greedy_dcover(g, k, d_cover)
    if method == "random":
        rng = np.random.default_rng(derived_seed(cfg.rng_seed, gi, 104729))
        return tuple(int(v) for v in rng.permutation(g.n)[:k])
    raise AssertionError(method)


def compare_methods(
    graphs,
    methods,
    cfg: SirConfig,
    seed_fraction: float,
    d_cover: int = 1,
    scores: dict | None = None,
    names: list[str] | None = None,
) -> EvalReport:
    """Evaluate every method on every graph: S_t (Monte-Carlo) and R.

    Rows come graph by graph, methods in the given order; graph ``gi`` is
    labelled ``names[gi]`` (default ``graph<gi>``) and draws its SIR runs
    from the ``(cfg.rng_seed, gi)`` stream.  `scores` maps a model-based
    method to one per-node score array per graph, in graph order (DataError
    on a missing, wrong-size or non-finite array).  Built-in names are
    degree, kshell, hindex, leaderrank, greedy, and random.  An empty method
    list, or one that names a method twice, is a DataError.
    """
    methods = list(methods)
    if not methods:
        raise DataError("no method given")
    scores = scores or {}
    valid = set(BUILTIN_METHODS) | set(scores)
    unknown = [m for m in methods if m not in valid]
    if unknown:
        raise DataError(f"unknown method(s) {unknown}; valid: {sorted(valid)}")
    repeated = next((m for i, m in enumerate(methods) if m in methods[:i]), None)
    if repeated is not None:
        raise DataError(f"method {repeated!r} is named more than once")
    if not (0 < seed_fraction <= 1):
        raise DataError(f"fraction must be in (0, 1], got {seed_fraction}")
    names = names if names is not None else [f"graph{gi}" for gi in range(len(graphs))]
    if len(names) != len(graphs):
        raise DataError(f"{len(names)} names for {len(graphs)} graphs")
    for method, per_graph in scores.items():
        got, want = [np.size(a) for a in per_graph], [g.n for g in graphs]
        if got != want:
            raise DataError(f"method {method!r}: score array sizes {got}, graph sizes {want}")
        bad = next((gi for gi, a in enumerate(per_graph) if not np.isfinite(a).all()), None)
        if bad is not None:
            raise DataError(f"method {method!r}: non-finite score on graph {names[bad]!r}")

    rows = []
    for gi, g in enumerate(graphs):
        mu = cfg.mu if cfg.mu is not None else default_mu(g)
        k = math.ceil(seed_fraction * g.n)
        rcfg = SirConfig(mu=mu, runs=cfg.runs, rng_seed=derived_seed(cfg.rng_seed, gi))
        for method in methods:
            seeds = _select_for_method(method, g, gi, k, seed_fraction, d_cover, cfg, scores)
            st, se = infection_rate(g, seeds, rcfg)
            rows.append(
                EvalRow(names[gi], method, st, se, robustness(g, seeds), mu, cfg.runs, seed_fraction)
            )
    return EvalReport(rows)
