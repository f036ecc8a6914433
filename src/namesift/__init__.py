"""Group web search results for ambiguous person names.

namesift classifies each result document retrieved for an ambiguous
person name against per-person knowledge-base entity profiles plus an
artificial noise entity that absorbs documents about people outside the
knowledge base.  The package ships tf-idf features, five scoring models,
two noise-profile constructions, clustering baselines, an evaluation
harness, and a CLI experiment driver.
"""

from .baselines import Clustering, Gram, gram, hac_complete, kmeans, run_repetitions
from .corpus import (
    NOISE_LABEL,
    CorpusFormatError,
    CorpusIntegrityError,
    EntityProfile,
    ResultDocument,
    Task,
    discover_tasks,
    load_task,
    strip_html,
    tokenize,
    write_task,
)
from .evaluation import (
    EvalReport,
    TaskMetrics,
    clustering_eval_filter,
    evaluate_assignment,
    micro_macro_f1,
    nmi,
    purity,
)
from .experiments import RunSpec, run_grid, validate_corpus
from .features import (
    ConfigError,
    FeatureConfig,
    FeatureIndex,
    FeatureVector,
    build_index,
    build_noise_profile,
    vectorize,
)
from .models import (
    MODELS,
    Assignment,
    ModelConfig,
    map_documents,
    smoothed_profile,
)
from .synthetic import synthetic_benchmark, write_benchmark

__version__ = "0.1.0"

__all__ = [
    "NOISE_LABEL",
    "MODELS",
    "Assignment",
    "Clustering",
    "ConfigError",
    "CorpusFormatError",
    "CorpusIntegrityError",
    "EntityProfile",
    "EvalReport",
    "FeatureConfig",
    "FeatureIndex",
    "FeatureVector",
    "Gram",
    "ModelConfig",
    "ResultDocument",
    "RunSpec",
    "Task",
    "TaskMetrics",
    "build_index",
    "build_noise_profile",
    "clustering_eval_filter",
    "discover_tasks",
    "evaluate_assignment",
    "gram",
    "hac_complete",
    "kmeans",
    "load_task",
    "map_documents",
    "micro_macro_f1",
    "nmi",
    "purity",
    "run_grid",
    "run_repetitions",
    "smoothed_profile",
    "strip_html",
    "synthetic_benchmark",
    "tokenize",
    "validate_corpus",
    "vectorize",
    "write_benchmark",
    "write_task",
]
