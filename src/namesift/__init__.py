"""Group web search results for ambiguous person names.

namesift classifies each result document retrieved for an ambiguous
person name against per-person knowledge-base entity profiles plus an
artificial noise entity that absorbs documents about people outside the
knowledge base.  The package ships tf-idf features, five scoring models,
two noise-profile constructions, clustering baselines, an evaluation
harness, and a CLI experiment driver.
"""

from .baselines import Clustering, Gram, assignment_to_clusters, gram, hac_complete, kmeans, run_repetitions
from .corpus import (
    NOISE_LABEL,
    CorpusFormatError,
    CorpusIntegrityError,
    EntityProfile,
    ResultDocument,
    Task,
    discover_tasks,
    load_corpus,
    load_task,
    strip_html,
    term_frequencies,
    tokenize,
    write_task,
)
from .evaluation import (
    EvalReport,
    TaskMetrics,
    clustering_eval_filter,
    evaluate_assignment,
    f1_bar,
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
    NoiseProfile,
    build_index,
    build_noise_profile,
    intersection_noise,
    tfidf,
    union_noise,
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
    "NoiseProfile",
    "ResultDocument",
    "RunSpec",
    "Task",
    "TaskMetrics",
    "assignment_to_clusters",
    "build_index",
    "build_noise_profile",
    "clustering_eval_filter",
    "discover_tasks",
    "evaluate_assignment",
    "f1_bar",
    "gram",
    "hac_complete",
    "intersection_noise",
    "kmeans",
    "load_corpus",
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
    "term_frequencies",
    "tfidf",
    "tokenize",
    "union_noise",
    "validate_corpus",
    "vectorize",
    "write_benchmark",
    "write_task",
]
