"""SimRank-based global aggregation for heterophilous node classification.

Subpackage map:
  graph    CSR graph container, edge-list loader, homophily, transition matrix P as CSR
  data     dataset bundles, text-format loaders, synthetic generators
  textio   read_table: every text reader's numpy fast pass and the one line loop that words errors
  simrank  exact SimRank, its power series and local push, top-k pruning, aggregation, dump/load
  walks    random-walk oracles (tour enumeration, meeting probabilities, first-meeting walk series)
  nn       dense MLP stack with hand-derived gradients, Adam, gradient checking
  model    the classifier, precompute_similarity (the one route to S), training loop, checkpoints
  verify   executable equivalence suites
  bench    scaling-ladder benchmark
  cli      command-line entry point (`simga`)
"""

from .data import DatasetBundle, gen_structural_heterophily, gen_twin_graph, load_bundle
from .errors import (
    DivergenceError,
    GuardError,
    InputFormatError,
    NumericError,
    ParameterError,
    SimgaError,
)
from .graph import (
    Graph,
    build_graph,
    load_edge_list,
    node_homophily,
    random_connected_graph,
    random_graph,
    transition,
)
from .model import (
    HyperParams,
    SimgaParams,
    TrainReport,
    aggregate,
    embed,
    evaluate,
    fit,
    forward,
    load_checkpoint,
    precompute_similarity,
    save_checkpoint,
)
from .simrank import (
    PushMatrix,
    SparseSim,
    class_score_histogram,
    dump_sparse_sim,
    load_sparse_sim,
    simrank_fixedpoint,
    simrank_localpush,
    simrank_power_series,
    sparse_aggregate,
    topk_from_push,
    topk_prune,
)
from .walks import (
    enumerate_tours,
    meeting_probability,
    simrank_series,
    walk_distribution,
)

__version__ = "0.1.0"
