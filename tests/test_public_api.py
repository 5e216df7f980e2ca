import inspect

import unsharp_qubit

# every public name of the package; an addition or a removal shows here as a diff
PUBLIC_NAMES = [
    "DOMINANT_EIGENSTATE",
    "DensityMatrix",
    "EnsembleError",
    "EnsembleStatistics",
    "ExperimentSpec",
    "FULLY_MIXED",
    "KINDS",
    "MeasurementAxis",
    "MeasurementSettings",
    "RANDOM_EIGENSTATE",
    "STRATEGIES",
    "SequenceResult",
    "Trajectory",
    "TrajectoryState",
    "bloch",
    "bloch_sde_step",
    "completeness_defect",
    "continuous",
    "derive_stream",
    "draw_noise",
    "drift_purity",
    "ensemble",
    "fidelity",
    "hypothetical_purity_paths",
    "mean_fidelity_closed_form",
    "montecarlo",
    "povm",
    "purify_estimate",
    "purity",
    "random_pure_state",
    "replay_hypothetical",
    "run_ensemble",
    "run_sequence",
    "sequential",
    "simulate_purity_ensemble",
    "simulate_trajectory",
    "sme_step",
    "spectral_match",
    "summarize",
    "time_from_steps",
]


def test_public_names_are_pinned():
    assert sorted(unsharp_qubit.__all__) == PUBLIC_NAMES


def _undocumented(name, obj):
    """The names of obj and of its own public methods that carry no docstring."""
    doc = (obj.__doc__ or "").strip()
    # a dataclass without a docstring gets its signature, "Name(field: type, ...)", in its place
    missing = [name] if not doc or inspect.isclass(obj) and doc.startswith(f"{obj.__name__}(") else []
    if inspect.isclass(obj):
        for method, attr in vars(obj).items():
            attr = getattr(attr, "__func__", attr)  # a classmethod's or staticmethod's function
            if not method.startswith("_") and callable(attr) and not (attr.__doc__ or "").strip():
                missing.append(f"{name}.{method}")
    return missing


def test_public_callables_are_documented():
    public = [(name, getattr(unsharp_qubit, name)) for name in unsharp_qubit.__all__]
    callables = [(name, obj) for name, obj in public if callable(obj)]
    assert len(callables) > 20
    assert [missing for name, obj in callables for missing in _undocumented(name, obj)] == []
