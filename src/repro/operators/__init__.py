"""Physical operators for continuous query plans (Sections 2.1, 4.1, 5.3)."""

from .base import PhysicalOperator
from .dupelim import DupElimDeltaOp, DupElimStandardOp
from .groupby import GroupByOp
from .join import IntersectOp, JoinOp
from .negation import NegationFifoOp, NegationOp
from .relation_join import NRRJoinOp, RelationJoinOp
from .stateless import ProjectOp, SelectOp, UnionOp, WindowOp

__all__ = [
    "PhysicalOperator",
    "DupElimDeltaOp",
    "DupElimStandardOp",
    "GroupByOp",
    "IntersectOp",
    "JoinOp",
    "NegationFifoOp",
    "NegationOp",
    "NRRJoinOp",
    "RelationJoinOp",
    "ProjectOp",
    "SelectOp",
    "UnionOp",
    "WindowOp",
]
