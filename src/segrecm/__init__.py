"""Exact calculator for degreewise (Segre) products of standard graded
algebras: Hilbert series arithmetic, toric presentations, depth and
Cohen-Macaulay classification of twisted products, and exact graded Hom
counts that test whether duals commute with the product.  A public name, or
module name, imports its module on first access: importing one loads no other."""

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in (
    ("cohomo", "DepthReport TwistInterval Witness anticanonical_cm_m2 canonical_power_cm cm_chain"
               " cm_twist_interval cm_uniform_twist cm_uniform_twist_raw cohomology_support"),
    ("errors", "BadTwist DimensionTooSmall DomainError NotApplicable NotPositive NotSorted"
               " NotStandardGraded ResourceCap SegreError WindowTooSmall"),
    ("linalg", ""),
    ("oracle", "Factor FriendlinessReport friendliness monomial_factor toric_factor"),
    ("series", "HilbertSeries"),
    ("toric", "ToricPresentation census kernel_lattice segre tensor validate"),
) for name in [module, *names.split()]}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name not bound here, from its module (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ binds the module name here, and python -X importtime shows it
    module = getattr(__import__(f"{__name__}.{_MODULE_OF[name]}"), _MODULE_OF[name])
    return module if name == _MODULE_OF[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
