"""formukit: a solid-dosage formulation toolkit.

Simulate powder dissolution from particle properties, inverse-design size
distributions for target release curves, build and parse structured LLM
prompts (zero-shot, chain-of-thought, few-shot, retrieval-augmented), and
benchmark the strategies against measured data with MSE/R^2.
"""

from .dissolution import (
    SimulationResult,
    derived_metrics,
    psd_from_lognormal,
    reynolds_schmidt,
    sherwood,
    simulate,
    simulate_dissolution,
)
from .evaluate import (
    AlignedPair,
    BenchmarkResult,
    EvalReport,
    EvalRow,
    align_profiles,
    mse,
    profile_metrics,
    r_squared,
    run_benchmark,
)
from .inverse import (
    DesignResult,
    DesignSpec,
    FreeBinsParameterization,
    LognormalParameterization,
    design_psd,
    design_report,
    objective,
)
from .llm import (
    CompletionResult,
    LiveBackend,
    LLMClient,
    LLMConfig,
    MockBackend,
    ReplayBackend,
    Transcript,
    TranscriptRecorder,
    make_backend,
    prompt_sha256,
)
from .prompts import (
    PromptBundle,
    PromptStrategy,
    build_prompt,
    parse_profile_response,
    render_example_blocks,
    validate_profile,
)
from .store import (
    FormulationRecord,
    RecordStore,
    RetrievalWeights,
    import_verbatim_file,
    load_records,
    record_from_verbatim,
)
from .types import (
    DEFAULT_OUTPUT_GRID_HR,
    HYDROCHLOROTHIAZIDE,
    DissolutionConditions,
    DissolutionProfile,
    DrugSubstance,
    FormulationInput,
    ParticleMorphology,
    SizeDistribution,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPair", "BenchmarkResult", "CompletionResult", "DEFAULT_OUTPUT_GRID_HR",
    "DesignResult", "DesignSpec", "DissolutionConditions", "DissolutionProfile",
    "DrugSubstance", "EvalReport", "EvalRow", "FormulationInput", "FormulationRecord",
    "FreeBinsParameterization", "HYDROCHLOROTHIAZIDE", "LiveBackend", "LLMClient",
    "LLMConfig", "LognormalParameterization", "MockBackend", "ParticleMorphology",
    "PromptBundle", "PromptStrategy", "RecordStore", "ReplayBackend", "RetrievalWeights",
    "SimulationResult", "SizeDistribution", "Transcript",
    "TranscriptRecorder", "align_profiles", "build_prompt",
    "derived_metrics", "design_psd", "design_report", "import_verbatim_file",
    "load_records", "make_backend", "mse", "objective", "parse_profile_response",
    "profile_metrics", "prompt_sha256", "psd_from_lognormal", "r_squared",
    "record_from_verbatim", "render_example_blocks", "reynolds_schmidt", "run_benchmark",
    "sherwood", "simulate", "simulate_dissolution", "validate_profile",
]
