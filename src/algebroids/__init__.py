"""Symbolic calculus for almost complex, Hermitian and Kahlerian Lie algebroids."""

from algebroids.scalars import (
    Chart,
    ComplexRational,
    ParseError,
    PoleError,
    Scalar,
    parse_scalar,
)
from algebroids.algebroid import Algebroid, Section, tangent, validate_structure
from algebroids.eforms import EForm
from algebroids.jstruct import EndoField, ComplexFrame, nijenhuis
from algebroids.connections import Connection, Metric, levi_civita
from algebroids.chern import BlockCurvature, block_curvature, chern_form
from algebroids.prodgeom import (
    identity_suite,
    mean_curvature,
    product_connection,
    second_fundamental,
)
from algebroids.constructions import (
    Fixture,
    direct_product,
    fixture,
    fixture_names,
    projector_restriction,
    prolong,
)

__all__ = [
    "BlockCurvature",
    "block_curvature",
    "chern_form",
    "identity_suite",
    "mean_curvature",
    "product_connection",
    "second_fundamental",
    "Fixture",
    "direct_product",
    "fixture",
    "fixture_names",
    "projector_restriction",
    "prolong",
    "Chart",
    "ComplexRational",
    "ParseError",
    "PoleError",
    "Scalar",
    "parse_scalar",
    "Algebroid",
    "Section",
    "tangent",
    "validate_structure",
    "EForm",
    "EndoField",
    "ComplexFrame",
    "nijenhuis",
    "Connection",
    "Metric",
    "levi_civita",
]
