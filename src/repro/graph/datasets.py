"""Registry of the sixteen evaluation datasets (scaled synthetic twins).

The paper's Table II lists sixteen real-world temporal networks from
SNAP and NetworkRepository, spanning 20K to 613M temporal edges.  This
offline, pure-Python reproduction cannot ship or process the originals,
so each registry entry pairs the *paper's* statistics with a synthetic
configuration that reproduces the dataset's shape (node count, edge
count, time span, degree skew) at a tractable scale.  The four smallest
datasets are generated at full edge count; larger ones are scaled down,
with the scale factor recorded on the spec.

Every spec is deterministic: ``load_dataset(name)`` always returns the
same graph for the same ``scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import DatasetError
from repro.graph import generators
from repro.graph.temporal_graph import TemporalGraph

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True)
class DatasetSpec:
    """One evaluation dataset: paper statistics + generator recipe."""

    name: str
    paper_name: str
    paper_nodes: int
    paper_edges: int
    paper_days: float
    #: nodes/edges actually generated at ``scale=1.0``
    gen_nodes: int
    gen_edges: int
    skew: float
    reciprocity: float
    repeat: float
    triadic: float
    burstiness: float
    bipartite: bool
    seed: int
    #: one line on what the original network is
    description: str = ""

    @property
    def edge_scale(self) -> float:
        """Generated-to-paper edge ratio (1.0 = full size)."""
        return self.gen_edges / self.paper_edges

    def build(self, scale: float = 1.0) -> TemporalGraph:
        """Instantiate the synthetic twin at ``scale`` of its default size."""
        nodes = max(2, int(self.gen_nodes * scale))
        edges = max(1, int(self.gen_edges * scale))
        return generators.powerlaw_temporal_graph(
            nodes,
            edges,
            span=self.paper_days * SECONDS_PER_DAY,
            skew=self.skew,
            reciprocity=self.reciprocity,
            repeat=self.repeat,
            triadic=self.triadic,
            burstiness=self.burstiness,
            bipartite_fraction=1.0 if self.bipartite else 0.0,
            seed=self.seed,
        )


def _spec(**kwargs) -> DatasetSpec:
    return DatasetSpec(**kwargs)


#: Registry in the paper's Table II order.
REGISTRY: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            name="email_eu", paper_name="Email-Eu",
            paper_nodes=986, paper_edges=332_334, paper_days=803,
            gen_nodes=986, gen_edges=40_000,
            skew=0.8, reciprocity=0.25, repeat=0.15, triadic=0.10,
            burstiness=0.6, bipartite=False, seed=101,
            description="internal email records of a European research institution",
        ),
        _spec(
            name="collegemsg", paper_name="CollegeMsg",
            paper_nodes=1_899, paper_edges=20_296, paper_days=193,
            gen_nodes=1_899, gen_edges=20_296,
            skew=0.8, reciprocity=0.30, repeat=0.15, triadic=0.05,
            burstiness=0.6, bipartite=False, seed=102,
            description="private messages on a UC Irvine social network",
        ),
        _spec(
            name="bitcoinotc", paper_name="Bitcoinotc",
            paper_nodes=5_881, paper_edges=35_592, paper_days=1_903,
            gen_nodes=5_881, gen_edges=35_592,
            skew=0.9, reciprocity=0.15, repeat=0.05, triadic=0.08,
            burstiness=0.4, bipartite=False, seed=103,
            description="Bitcoin OTC web-of-trust ratings",
        ),
        _spec(
            name="bitcoinalpha", paper_name="Bitcoinalpha",
            paper_nodes=3_783, paper_edges=24_186, paper_days=1_901,
            gen_nodes=3_783, gen_edges=24_186,
            skew=0.9, reciprocity=0.15, repeat=0.05, triadic=0.08,
            burstiness=0.4, bipartite=False, seed=104,
            description="Bitcoin Alpha web-of-trust ratings",
        ),
        _spec(
            name="act_mooc", paper_name="Act-mooc",
            paper_nodes=7_143, paper_edges=411_749, paper_days=29,
            gen_nodes=7_143, gen_edges=60_000,
            skew=0.7, reciprocity=0.0, repeat=0.25, triadic=0.0,
            burstiness=0.7, bipartite=True, seed=105,
            description="student actions on a MOOC platform (bipartite)",
        ),
        _spec(
            name="sms_a", paper_name="SMS-A",
            paper_nodes=44_090, paper_edges=544_817, paper_days=338,
            gen_nodes=9_000, gen_edges=70_000,
            skew=0.8, reciprocity=0.35, repeat=0.20, triadic=0.02,
            burstiness=0.7, bipartite=False, seed=106,
            description="mobile SMS messages; heavy pair bursts",
        ),
        _spec(
            name="fb_wall", paper_name="FBWALL",
            paper_nodes=45_813, paper_edges=855_542, paper_days=1_591,
            gen_nodes=10_000, gen_edges=80_000,
            skew=0.8, reciprocity=0.25, repeat=0.10, triadic=0.10,
            burstiness=0.5, bipartite=False, seed=107,
            description="Facebook New Orleans wall posts",
        ),
        _spec(
            name="mathoverflow", paper_name="MathOverflow",
            paper_nodes=24_818, paper_edges=506_550, paper_days=2_350,
            gen_nodes=6_000, gen_edges=60_000,
            skew=1.0, reciprocity=0.20, repeat=0.10, triadic=0.10,
            burstiness=0.5, bipartite=False, seed=108,
            description="Stack Exchange Q&A interactions (math)",
        ),
        _spec(
            name="askubuntu", paper_name="AskUbuntu",
            paper_nodes=159_316, paper_edges=964_437, paper_days=2_613,
            gen_nodes=16_000, gen_edges=90_000,
            skew=1.0, reciprocity=0.15, repeat=0.08, triadic=0.08,
            burstiness=0.5, bipartite=False, seed=109,
            description="Stack Exchange Q&A interactions (Ubuntu)",
        ),
        _spec(
            name="superuser", paper_name="SuperUser",
            paper_nodes=194_085, paper_edges=1_443_339, paper_days=2_773,
            gen_nodes=20_000, gen_edges=110_000,
            skew=1.0, reciprocity=0.15, repeat=0.08, triadic=0.08,
            burstiness=0.5, bipartite=False, seed=110,
            description="Stack Exchange Q&A interactions (SuperUser)",
        ),
        _spec(
            name="rec_movielens", paper_name="Rec-MovieLens",
            paper_nodes=283_228, paper_edges=27_753_444, paper_days=1_128,
            gen_nodes=15_000, gen_edges=140_000,
            skew=0.8, reciprocity=0.0, repeat=0.05, triadic=0.0,
            burstiness=0.6, bipartite=True, seed=111,
            description="MovieLens user→movie ratings (bipartite)",
        ),
        _spec(
            name="wikitalk", paper_name="WikiTalk",
            paper_nodes=1_140_149, paper_edges=7_833_140, paper_days=2_320,
            gen_nodes=24_000, gen_edges=130_000,
            skew=1.25, reciprocity=0.15, repeat=0.08, triadic=0.05,
            burstiness=0.5, bipartite=False, seed=112,
            description="Wikipedia talk-page edits; extreme degree skew",
        ),
        _spec(
            name="stackoverflow", paper_name="StackOverflow",
            paper_nodes=2_601_977, paper_edges=63_497_050, paper_days=2_774,
            gen_nodes=36_000, gen_edges=180_000,
            skew=1.0, reciprocity=0.15, repeat=0.08, triadic=0.08,
            burstiness=0.5, bipartite=False, seed=113,
            description="Stack Overflow Q&A interactions",
        ),
        _spec(
            name="ia_online_ads", paper_name="IA-online-ads",
            paper_nodes=15_336_555, paper_edges=15_995_634, paper_days=2_461,
            gen_nodes=60_000, gen_edges=90_000,
            skew=0.6, reciprocity=0.0, repeat=0.05, triadic=0.0,
            burstiness=0.4, bipartite=True, seed=114,
            description="user→advertisement clicks (bipartite, near 1:1 node:edge)",
        ),
        _spec(
            name="soc_bitcoin", paper_name="Soc-bitcoin",
            paper_nodes=24_575_382, paper_edges=122_948_162, paper_days=2_584,
            gen_nodes=48_000, gen_edges=220_000,
            skew=1.1, reciprocity=0.10, repeat=0.10, triadic=0.05,
            burstiness=0.6, bipartite=False, seed=115,
            description="large Bitcoin transaction network",
        ),
        _spec(
            name="redditcomments", paper_name="RedditComments",
            paper_nodes=8_036_164, paper_edges=613_289_746, paper_days=3_686,
            gen_nodes=40_000, gen_edges=260_000,
            skew=1.1, reciprocity=0.25, repeat=0.10, triadic=0.08,
            burstiness=0.5, bipartite=False, seed=116,
            description="Reddit user-to-user comment replies",
        ),
    )
}


def dataset_names() -> Tuple[str, ...]:
    """All registry dataset names, in the paper's Table II order."""
    return tuple(REGISTRY)


def get_spec(name: str) -> DatasetSpec:
    """Look up a :class:`DatasetSpec` by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(REGISTRY)}"
        ) from None


_CACHE: Dict[Tuple[str, float], TemporalGraph] = {}


def load_dataset(name: str, scale: float = 1.0, cache: bool = True) -> TemporalGraph:
    """Build (or fetch from the in-process cache) a dataset's graph.

    ``scale`` multiplies the default generated size — the benchmark
    harness uses ``scale < 1`` for quick runs.  Graphs are cached per
    ``(name, scale)`` because benchmark sweeps reuse them heavily.
    """
    spec = get_spec(name)
    key = (name, scale)
    if cache and key in _CACHE:
        return _CACHE[key]
    graph = spec.build(scale)
    if cache:
        _CACHE[key] = graph
    return graph
