"""Generate-then-mend text-to-SQL: few-shot generation, entity linking and
skeleton hallucination as verification sub-tasks, deterministic feedback
construction, ordered correction, and an execution-accuracy harness."""

from .alignment import (
    Alignment,
    AlignmentEntry,
    LinkingScore,
    linked_entities,
    parse_alignment,
    score_alignment,
    tokenize_question,
)
from .backends import (
    HttpBackend,
    HttpBackendConfig,
    ModelBackend,
    ModelRequest,
    ModelResponse,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
    prompt_sha256,
)
from .comparison import Feedback, compare_entities, compare_skeletons
from .datasets import Example, load_alignment_sidecar, load_dataset
from .evaluation import (
    EvalRecord,
    ExecutionResult,
    Report,
    classify_errors,
    evaluate_run,
    execute_sql,
    results_match,
)
from .pipeline import CorrectionTrace, MendPipeline, PipelineConfig, read_traces, write_traces
from .prompts import PromptDemo, PromptKind, build_prompt, correction_prompt, extract_sql_block
from .retrieval import Bm25Index, Demonstration, build_index, load_demonstration_pool, top_k
from .schema import (
    ColumnDef,
    ForeignKey,
    SchemaCatalog,
    TableDef,
    load_tables_json,
    render_schema_prompt,
)
from .sql_analysis import (
    SqlAnalysis,
    SqlEntities,
    SqlToken,
    analyze_sql,
    extract_entities,
    extract_skeleton,
    tokenize_sql,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
