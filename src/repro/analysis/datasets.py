"""Data sets of task trees for the experimental campaign.

The paper uses assembly trees of 291 matrices of the University of Florida
collection, ordered with MeTiS and AMD and amalgamated with 1, 2, 4 and 16
relaxed amalgamations per node, plus a randomly reweighted copy of every tree
(Section VI-E).  Offline, this module builds the substitute campaign described
in DESIGN.md:

* :func:`matrix_suite` -- a deterministic collection of synthetic SPD
  matrices (regular grids, anisotropic stencils, random patterns, band
  matrices, small-world and power-law graph Laplacians);
* :func:`assembly_tree_dataset` -- the cross product of those matrices with
  the fill-reducing orderings and relaxed-amalgamation budgets, producing one
  weighted assembly tree per combination;
* :func:`random_tree_dataset` -- the Section VI-E reweighting of every
  assembly-tree shape (node weights in ``[1, N/500]``, edge weights in
  ``[1, N]``) plus a few purely random shapes.

Three scales are provided: ``"tiny"`` (seconds, used by the test-suite),
``"small"`` (the default for the benchmark harness, about a hundred trees)
and ``"full"`` (larger matrices, for longer runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import scipy.sparse as sp

from ..core.tree import Tree
from ..generators.random_trees import (
    random_attachment_tree,
    random_recent_attachment_tree,
    reweight_random,
)
from ..sparse.assembly import build_assembly_tree
from ..sparse.matrices import (
    anisotropic_laplacian_2d,
    banded_spd,
    graph_laplacian,
    grid_laplacian_2d,
    grid_laplacian_3d,
    random_spd,
)
from ..sparse.ordering import ORDERINGS

__all__ = ["TreeInstance", "matrix_suite", "assembly_tree_dataset", "random_tree_dataset", "SCALES"]

SCALES = ("tiny", "small", "full")

#: minimum-degree ordering is skipped above this size.  Speed is no longer the
#: reason: with followers eliminated in groups it orders every "full" matrix in
#: 4-125 ms (random-800 the slowest; 2-vCPU Xeon, CPython 3.11), where the
#: one-pivot loop took up to 1.4 s.  Raising the limit would add instances to
#: the "full" data set (every "full" matrix but ba-600 is larger) and so change
#: Figure 6; the "tiny" and "small" matrices all stay below it.
_MD_SIZE_LIMIT = 700


@dataclass(frozen=True)
class TreeInstance:
    """One tree of a data set, with provenance metadata."""

    name: str
    tree: Tree
    source: str
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.tree.size


def matrix_suite(scale: str = "small") -> List[Tuple[str, sp.csc_matrix]]:
    """The synthetic matrix collection for a given scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    if scale == "tiny":
        return [
            ("grid2d-8", grid_laplacian_2d(8)),
            ("grid3d-4", grid_laplacian_3d(4)),
            ("random-60", random_spd(60, density=0.05, seed=7)),
            ("banded-80", banded_spd(80, bandwidth=4, seed=3)),
        ]
    if scale == "small":
        return [
            ("grid2d-16", grid_laplacian_2d(16)),
            ("grid2d-24", grid_laplacian_2d(24)),
            ("grid2d-20-s9", grid_laplacian_2d(20, stencil=9)),
            ("grid3d-7", grid_laplacian_3d(7)),
            ("aniso-20", anisotropic_laplacian_2d(20, ratio=50.0)),
            ("random-300", random_spd(300, density=0.02, seed=11)),
            ("banded-500", banded_spd(500, bandwidth=5, seed=5)),
            ("ws-400", graph_laplacian("watts_strogatz", 400, seed=13, k=6, p=0.05)),
            ("ba-250", graph_laplacian("barabasi_albert", 250, seed=17, m=2)),
        ]
    return [
        ("grid2d-32", grid_laplacian_2d(32)),
        ("grid2d-48", grid_laplacian_2d(48)),
        ("grid2d-40-s9", grid_laplacian_2d(40, stencil=9)),
        ("grid3d-10", grid_laplacian_3d(10)),
        ("aniso-36", anisotropic_laplacian_2d(36, ratio=100.0)),
        ("random-800", random_spd(800, density=0.01, seed=11)),
        ("banded-1500", banded_spd(1500, bandwidth=6, seed=5)),
        ("ws-1000", graph_laplacian("watts_strogatz", 1000, seed=13, k=6, p=0.05)),
        ("ba-600", graph_laplacian("barabasi_albert", 600, seed=17, m=2)),
        ("geo-800", graph_laplacian("random_geometric", 800, seed=23)),
    ]


def _orderings_for(name: str, matrix: sp.spmatrix, scale: str) -> Sequence[str]:
    orderings = ["nested_dissection", "rcm", "natural"]
    if matrix.shape[0] <= _MD_SIZE_LIMIT:
        orderings.insert(1, "minimum_degree")
    if scale == "tiny":
        return orderings[:2]
    return orderings


def _relaxed_for(scale: str) -> Sequence[int]:
    if scale == "tiny":
        return (1,)
    if scale == "small":
        return (1, 4, 16)
    return (1, 2, 4, 16)


def assembly_tree_dataset(
    scale: str = "small",
    *,
    orderings: Optional[Sequence[str]] = None,
    relaxed: Optional[Sequence[int]] = None,
    matrices: Optional[Sequence[Tuple[str, sp.spmatrix]]] = None,
) -> List[TreeInstance]:
    """Build the assembly-tree data set (matrices x orderings x amalgamation).

    Every instance's metadata records the matrix name, the ordering, the
    relaxed-amalgamation budget and the symbolic statistics of the permuted
    matrix, so that experiment results can be sliced afterwards.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    suite = matrix_suite(scale) if matrices is None else list(matrices)
    relaxed_values = _relaxed_for(scale) if relaxed is None else tuple(relaxed)

    instances: List[TreeInstance] = []
    for matrix_name, matrix in suite:
        matrix_orderings = (
            _orderings_for(matrix_name, matrix, scale) if orderings is None else orderings
        )
        for ordering in matrix_orderings:
            perm = ORDERINGS[ordering](matrix)
            for budget in relaxed_values:
                result = build_assembly_tree(matrix, ordering=perm, relaxed=budget)
                name = f"{matrix_name}/{ordering}/r{budget}"
                instances.append(
                    TreeInstance(
                        name=name,
                        tree=result.tree,
                        source="assembly",
                        metadata={
                            "matrix": matrix_name,
                            "ordering": ordering,
                            "relaxed": budget,
                            "n": int(matrix.shape[0]),
                            "supernodes": result.tree.size,
                            "nnz_l": result.symbolic.nnz_l,
                            "fill_ratio": result.symbolic.fill_ratio,
                        },
                    )
                )
    return instances


def random_tree_dataset(
    scale: str = "small",
    seed: int = 0,
    *,
    assembly_instances: Optional[Sequence[TreeInstance]] = None,
    extra_shapes: bool = True,
) -> List[TreeInstance]:
    """Build the random-weight data set of Section VI-E.

    Every assembly-tree *shape* is kept and its weights are redrawn uniformly
    (node weights in ``[1, N/500]``, edge weights in ``[1, N]``).  A few
    purely random shapes are appended when ``extra_shapes`` is True to widen
    the family beyond assembly-tree shapes, mirroring the paper's remark that
    general trees behave very differently from assembly trees.
    """
    if assembly_instances is None:
        assembly_instances = assembly_tree_dataset(scale)
    instances: List[TreeInstance] = []
    for offset, instance in enumerate(assembly_instances):
        tree = reweight_random(instance.tree, seed=seed + offset)
        instances.append(
            TreeInstance(
                name=f"random/{instance.name}",
                tree=tree,
                source="random",
                metadata={**instance.metadata, "reweighted_from": instance.name},
            )
        )
    if extra_shapes:
        sizes = {"tiny": (40, 80), "small": (200, 400, 800), "full": (1000, 2000, 4000)}[scale]
        for i, size in enumerate(sizes):
            shallow = random_attachment_tree(size, seed=seed + 1000 + i)
            deep = random_recent_attachment_tree(size, seed=seed + 2000 + i, window=8)
            instances.append(
                TreeInstance(
                    name=f"random/attachment-{size}",
                    tree=reweight_random(shallow, seed=seed + 3000 + i),
                    source="random",
                    metadata={"shape": "uniform_attachment", "n": size},
                )
            )
            instances.append(
                TreeInstance(
                    name=f"random/deep-{size}",
                    tree=reweight_random(deep, seed=seed + 4000 + i),
                    source="random",
                    metadata={"shape": "recent_attachment", "n": size},
                )
            )
    return instances
