"""anchordiff: anchored masked diffusion over mini-language syntax trees.

A desk-scale library for structure-aware discrete diffusion on code: a
parsed mini-language with exact byte spans, token-to-tree mapping and the
induced partial order, depth-decayed soft anchor weights, the masked
forward/reverse processes with their losses, exact and count-based
reference denoisers, a two-stage anchored sampler, and experiment
harnesses (ancestry probe, validity and ordering metrics).
"""

from .anchors import (
    AnchorConfig,
    AnchorStrategy,
    AnchorWeights,
    compute_anchor_targets,
    compute_eta,
    compute_omega,
    compute_weights,
    default_beta,
    default_gamma,
)
from .corpus_io import (
    DatasetRecord,
    EmptyCorpusError,
    IngestError,
    annotate_program,
    build_corpus,
    build_vocab,
    dataset_from_jsonl,
    dataset_to_jsonl,
    ingest,
    load_dataset,
    pad_id,
    synth_corpus,
)
from .denoisers import (
    AnchoredPair,
    BackoffCountModel,
    Corpus,
    ExactPosteriorDenoiser,
    MarginalAnchorProfile,
    NoMatchError,
    PosteriorAnchorProfile,
    TwoStagePredictor,
    two_stage_predict,
)
from .diffusion import (
    ConsistencyError,
    DegenerateRowError,
    LatentSequence,
    LossReport,
    Vocab,
    anelbo,
    apply_constraints,
    corrupt,
    nelbo,
    reverse_posterior_step,
)
from .experiments import (
    ProbeResult,
    ProbeRun,
    RevealOrder,
    ValidityReport,
    ancestry_probe,
    compare_strategies,
    validity_eval,
)
from .hierarchy import (
    InsufficientDepth,
    ancestor_chain,
    assign_nodes,
    precedes,
)
from .minilang import (
    ParseError,
    SyntaxTree,
    Token,
    TokenKind,
    is_syntactically_valid,
    parse,
    tokenize,
)
from .sampler import (
    DenoiseTrace,
    SamplerConfig,
    default_remask_rate,
    generate,
    unmask_order_stats,
)
from .schedule import (
    NoiseSchedule,
    ScheduleKind,
    alpha,
    lambda_weight,
    step_times,
    unmask_prob,
)

__version__ = "0.1.0"
