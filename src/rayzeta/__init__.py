"""Exact special values at s=0 of ray-class partial zeta functions of real
quadratic fields via cone decomposition, with quasi-polynomial analysis over
polynomial families and Hecke L-value assembly."""

from .contfrac import MinusCF, PeriodicCF, cf_value, minus_cf, plus_to_minus
from .family import (
    FamilySpec,
    FieldInstance,
    QuasiPoly,
    PRESETS,
    ResidueContext,
    fit_oracle,
    get_preset,
    instantiate,
    norm_invariance_check,
    quasi_poly,
)
from .hecke import DirichletChar, hecke_L0, hecke_L0_family
from .quadfield import (
    ModuleBasis,
    QuadElem,
    QuadField,
    coords_in_basis,
    fundamental_unit_totally_positive,
    unit_index_lambda,
)
from .shintani import (
    ConeContext,
    RayLabel,
    eps_act,
    f_delta,
    orbit,
    partial_zeta0,
    yamamoto_xy,
)

__version__ = "0.1.0"
