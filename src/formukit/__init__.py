"""formukit: a solid-dosage formulation toolkit.

Simulate powder dissolution from particle properties, inverse-design size
distributions for target release curves, build and parse structured LLM
prompts (zero-shot, chain-of-thought, few-shot, retrieval-augmented), and
benchmark the strategies against measured data with MSE/R^2.

The public names load lazily (PEP 562): ``import formukit`` imports no
submodule, and each name imports its own module on first use, so a command
pays only for the modules it runs.
"""

import importlib

#: Each submodule with the public names it exports.
_EXPORTS = {
    "dissolution": ("SimulationResult", "derived_metrics", "psd_from_lognormal",
                    "reynolds_schmidt", "sherwood", "simulate", "simulate_dissolution"),
    "evaluate": ("AlignedPair", "BenchmarkResult", "EvalReport", "EvalRow", "align_profiles",
                 "mse", "profile_metrics", "r_squared", "run_benchmark"),
    "inverse": ("DesignResult", "DesignSpec", "FreeBinsParameterization",
                "LognormalParameterization", "design_psd", "design_report", "objective"),
    "llm": ("LiveBackend", "LLMClient", "MockBackend", "ReplayBackend",
            "Transcript", "TranscriptRecorder", "make_backend", "prompt_sha256"),
    "prompts": ("PromptBundle", "PromptStrategy", "build_prompt", "parse_profile_response",
                "render_example_blocks", "validate_profile"),
    "store": ("FormulationRecord", "RecordStore", "load_records", "record_from_verbatim"),
    "types": ("DEFAULT_OUTPUT_GRID_HR", "HYDROCHLOROTHIAZIDE", "DissolutionConditions",
              "DissolutionProfile", "DrugSubstance", "FormulationInput", "LLMConfig",
              "ParticleMorphology", "SizeDistribution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
#: The submodules that ``formukit.<name>`` reaches without importing them by name.
_SUBMODULES = {*_EXPORTS, "errors"}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value             # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
