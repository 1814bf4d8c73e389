#!/usr/bin/env python3
"""Quickstart: the unified ``solve()`` / ``compare()`` API, as a doctest.

Everything below is executable documentation: run it as a script
(``python examples/quickstart.py``) or check it line by line with
``python -m doctest examples/quickstart.py`` (the CI docs job does the
latter on every push).

Build a small task tree -- node weights are the paper's ``f`` (communication
file exchanged with the parent) and ``n`` (execution file):

>>> from repro import Tree, solve, compare, solve_many
>>> tree = Tree()
>>> tree.add_node("root", f=0.0, n=10.0)
'root'
>>> for name, parent, f, n in [
...     ("left", "root", 16.0, 20.0), ("right", "root", 9.0, 12.0),
...     ("left.a", "left", 9.0, 8.0), ("left.b", "left", 4.0, 6.0),
...     ("right.a", "right", 4.0, 5.0), ("right.b", "right", 1.0, 2.0),
...     ("left.a.x", "left.a", 4.0, 3.0), ("left.a.y", "left.a", 1.0, 1.0),
... ]:
...     _ = tree.add_node(name, parent=parent, f=f, n=n)
>>> tree.size, tree.max_mem_req()
(9, 49.0)

``solve`` runs any registered algorithm and returns a ``SolveReport``:

>>> report = solve(tree, "minmem")           # the paper's exact MinMem
>>> report.peak_memory
49.0
>>> report.traversal.order[:3]
('root', 'right', 'right.a')

Every solver runs on the array-backed kernel, which checks the weights
once when it is built -- so a bad tree fails the same way everywhere:

>>> from repro import Tree
>>> bad = Tree.from_parents([-1, 0, 0], f=[0.0, -5.0, 9.0], n=[10.0, 20.0, 12.0])
>>> solve(bad, "postorder")
Traceback (most recent call last):
    ...
ValueError: negative file size for node 1

Postorder traversals (what sparse direct solvers use) can be arbitrarily
worse than the optimum -- the paper's harpoon construction forces the gap:

>>> from repro.generators.harpoon import harpoon_tree
>>> harpoon = harpoon_tree(4, memory=16.0, epsilon=0.5)
>>> ranking = compare(harpoon)               # postorder vs liu vs minmem
>>> [(r.algorithm, r.peak_memory) for r in ranking]
[('liu', 18.0), ('minmem', 18.0), ('postorder', 28.5)]
>>> round(ranking.ratios()["postorder"], 4)
1.5833

With less memory than the in-core optimum, the MinIO scheduler plans which
files to write to secondary storage (and the I/O volume it costs):

>>> out = solve(harpoon, "minio", memory=17.0, heuristic="first_fit")
>>> out.io_volume, out.extras["io_operations"]
(1.0, 2)

Batches fan out across trees and algorithms (and, with ``workers=N``,
across processes); results are identical to the serial path:

>>> batch = solve_many([tree, harpoon], ["postorder", "minmem"])
>>> [round(reports["postorder"].peak_memory, 1) for reports in batch]
[49.0, 28.5]

Every report can be re-executed by the independent replay oracle of
:mod:`repro.bench`, which recomputes the claimed metrics from scratch:

>>> from repro.bench import replay_report
>>> replay = replay_report(harpoon, solve(harpoon, "minmem"))
>>> replay.peak_memory, replay.steps, replay.complete
(18.0, 13, True)

The full scenario-sweep campaign lives behind the CLI::

    repro-treemem bench --smoke --json     # run + write BENCH_<timestamp>.json
    repro-treemem bench --compare OLD NEW  # exit 1 on regressions
    repro-treemem bench --filter large
"""

from repro import compare, list_solvers, solve, solve_many
from repro.generators.harpoon import harpoon_tree


def build_tree():
    """The hand-made assembly-like tree used in the doctest above."""
    from repro import Tree

    tree = Tree()
    tree.add_node("root", f=0.0, n=10.0)
    tree.add_node("left", parent="root", f=16.0, n=20.0)
    tree.add_node("right", parent="root", f=9.0, n=12.0)
    tree.add_node("left.a", parent="left", f=9.0, n=8.0)
    tree.add_node("left.b", parent="left", f=4.0, n=6.0)
    tree.add_node("right.a", parent="right", f=4.0, n=5.0)
    tree.add_node("right.b", parent="right", f=1.0, n=2.0)
    tree.add_node("left.a.x", parent="left.a", f=4.0, n=3.0)
    tree.add_node("left.a.y", parent="left.a", f=1.0, n=1.0)
    return tree


def main() -> None:
    tree = build_tree()
    print(f"tree with {tree.size} tasks, max MemReq = {tree.max_mem_req():.0f} MB")
    print(f"registered solvers: {', '.join(list_solvers())}\n")

    minmem = solve(tree, "minmem")
    print(f"MinMem     : {minmem.peak_memory:.0f} MB "
          f"({minmem.extras['explore_calls']} Explore calls)")
    print(f"  order    : {' -> '.join(map(str, minmem.traversal.order))}\n")

    harpoon = harpoon_tree(4, memory=16.0, epsilon=0.5)
    print("harpoon ranking (postorder provably suboptimal):")
    print(compare(harpoon).format_table())

    out = solve(harpoon, "minio", memory=17.0, heuristic="first_fit")
    print(f"\nout-of-core at M=17: {out.io_volume:.1f} MB written "
          f"({out.extras['io_operations']} files)")

    batch = solve_many([tree, harpoon], ["postorder", "minmem"], workers=2)
    for i, reports in enumerate(batch):
        ratio = reports["postorder"].peak_memory / reports["minmem"].peak_memory
        print(f"tree #{i}: PostOrder / optimal = {ratio:.3f}")


if __name__ == "__main__":
    main()
