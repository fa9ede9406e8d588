"""Physical operators for continuous query plans (Sections 2.1, 4.1, 5.3)."""

from .aggregates import Aggregate, make_aggregate
from .base import PhysicalOperator
from .dupelim import DupElimDeltaOp, DupElimStandardOp
from .groupby import GroupByOp
from .join import IntersectOp, JoinOp
from .negation import NegationOp
from .relation_join import NRRJoinOp, RelationJoinOp
from .stateless import ProjectOp, SelectOp, UnionOp, WindowOp

__all__ = [
    "Aggregate",
    "make_aggregate",
    "PhysicalOperator",
    "DupElimDeltaOp",
    "DupElimStandardOp",
    "GroupByOp",
    "IntersectOp",
    "JoinOp",
    "NegationOp",
    "NRRJoinOp",
    "RelationJoinOp",
    "ProjectOp",
    "SelectOp",
    "UnionOp",
    "WindowOp",
]
