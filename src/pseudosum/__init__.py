"""Pseudo-summation on finite alphabets.

Associative lookup tables define a pseudo-sum x (+) y on a finite alphabet;
this package computes exact laws of i.i.d. pseudo-sums, classifies the
stable laws (fixed points of self-convolution), tests domains of attraction,
and decomposes infinitely divisible laws, with specializations for the
cyclic table (modular addition through a permutation) and the max table.

Submodules load on first use (PEP 562): `import pseudosum` loads no numpy,
and `pseudosum.max_convolve` loads only the modules it needs.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("ValidityError",),
    "lut": (
        "Alphabet",
        "LutTable",
        "Permutation",
        "apply",
        "check_associative",
        "check_commutative",
        "degenerate_doa_necessary",
        "find_idempotents",
        "find_identity",
        "is_associative",
        "make_cyclic_lut",
        "make_max_lut",
        "make_mod_lut",
        "verify_left_subtraction",
    ),
    "dist": (
        "CONVERGED",
        "CYCLE",
        "MAX_ITERATIONS",
        "Distribution",
        "LimitResult",
        "convolve",
        "is_stable",
        "limit",
        "power",
        "tv_distance",
    ),
    "cyclic": (
        "IdDecomposition",
        "Spectrum",
        "StableLaw",
        "classify_stable",
        "construct_id",
        "decompose_id",
        "doa_attractor",
        "enumerate_stable",
        "from_spectrum",
        "in_doa",
        "is_infinitely_divisible",
        "multiply_spectra",
        "nth_root_oracle",
        "relabel",
        "spectrum",
        "stable_distribution",
    ),
    "extremal": (
        "Cdf",
        "max_convolve",
        "max_doa",
        "max_nth_root",
        "max_stable_set",
    ),
    "montecarlo": ("SimConfig", "empirical_fold", "sample_index"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# capitalized names (classes, constants) first, each group in case-blind order
__all__ = sorted(_OWNER, key=lambda s: (s[0].islower(), s.lower()))

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines `name` (or is `name`) and bind the
    value here, so this hook runs once per name."""
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
