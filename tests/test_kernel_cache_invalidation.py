"""Regression tests: ``Tree.kernel()`` cache invalidation.

The kernel cache is the foundation under the engine arena (segment exports
are keyed by kernel identity).  The contract:

* repeated calls without mutation return the *same object* (identity,
  not equality -- the arena depends on it);
* every mutating method (``add_node``, ``set_f``, ``set_n``) drops the
  cached kernel: the next ``kernel()`` call returns a different object
  whose id-space content matches ``TreeKernel.from_tree`` of the mutated
  tree;
* non-mutating accessors never invalidate;
* a pickled/unpickled tree re-validates: its kernel reflects the state at
  pickling time, and post-unpickle mutations invalidate as usual.
"""

from __future__ import annotations

import pickle

from repro.core.kernel import TreeKernel
from repro.core.tree import Tree


def make_tree() -> Tree:
    tree = Tree()
    tree.add_node("root", f=1.0, n=1.0)
    tree.add_node("a", parent="root", f=2.0, n=1.0)
    tree.add_node("b", parent="root", f=3.0, n=0.0)
    tree.add_node("c", parent="a", f=1.0, n=2.0)
    return tree


def assert_same_id_space(kern: TreeKernel, tree: Tree) -> None:
    """``kern`` describes exactly ``tree``, whatever its internal labeling."""
    fresh = TreeKernel.from_tree(tree)
    assert sorted(kern.ids) == sorted(fresh.ids)
    for node in tree.nodes():
        i, j = kern.index[node], fresh.index[node]
        assert kern.f[i] == fresh.f[j]
        assert kern.n[i] == fresh.n[j]
        parent_i = kern.parent[i]
        parent_j = fresh.parent[j]
        assert (parent_i < 0) == (parent_j < 0)
        if parent_i >= 0:
            assert kern.ids[parent_i] == fresh.ids[parent_j]
        assert kern.mem_req[i] == fresh.mem_req[j]


def test_kernel_is_cached_between_calls():
    tree = make_tree()
    assert tree.kernel() is tree.kernel()


def test_add_node_invalidates():
    tree = make_tree()
    before = tree.kernel()
    tree.add_node("d", parent="b", f=4.0, n=1.0)
    after = tree.kernel()
    assert after is not before
    assert "d" in after.index
    assert_same_id_space(after, tree)


def test_set_f_invalidates():
    tree = make_tree()
    before = tree.kernel()
    tree.set_f("a", 9.0)
    after = tree.kernel()
    assert after is not before
    assert after.f[after.index["a"]] == 9.0
    assert_same_id_space(after, tree)


def test_set_n_invalidates():
    tree = make_tree()
    before = tree.kernel()
    tree.set_n("c", 7.0)
    after = tree.kernel()
    assert after is not before
    assert after.n[after.index["c"]] == 7.0
    assert_same_id_space(after, tree)


def test_every_mutation_in_sequence_invalidates():
    """Interleaved mutations and kernel() calls never serve a stale kernel."""
    tree = make_tree()
    seen = []  # strong refs: a collected kernel's id() could be reused
    for step in range(6):
        if step % 3 == 0:
            tree.add_node(f"x{step}", parent="root", f=float(step), n=1.0)
        elif step % 3 == 1:
            tree.set_f("b", float(10 + step))
        else:
            tree.set_n("a", float(step))
        kern = tree.kernel()
        assert all(kern is not old for old in seen)
        seen.append(kern)
        assert_same_id_space(kern, tree)


def test_accessors_do_not_invalidate():
    tree = make_tree()
    kern = tree.kernel()
    tree.parent("a")
    tree.children("root")
    tree.f("b")
    tree.n("c")
    tree.mem_req("a")
    tree.max_mem_req()
    tree.depth("c")
    tree.depths()
    tree.height()
    tree.leaves()
    tree.is_leaf("c")
    tree.ancestors("c")
    tree.subtree_nodes("a")
    tree.subtree_size("a")
    tree.topological_order()
    tree.bottom_up_order()
    tree.postorder_dfs()
    tree.total_file_size()
    tree.validate()
    list(tree)
    len(tree)
    "a" in tree
    assert tree.kernel() is kern


def test_pickled_tree_revalidates():
    tree = make_tree()
    tree.kernel()
    clone = pickle.loads(pickle.dumps(tree))
    assert clone == tree
    assert_same_id_space(clone.kernel(), clone)
    # the unpickled tree carries its own cached kernel: the first mutation
    # after unpickling must still drop it and rebuild correctly
    clone.set_f("b", 42.0)
    kern = clone.kernel()
    assert kern.f[kern.index["b"]] == 42.0
    assert_same_id_space(kern, clone)
    # and the original is untouched
    assert tree.f("b") == 3.0


def test_pickle_with_pending_journal():
    """Pickling after a mutation, before kernel() rebuilds, is safe."""
    tree = make_tree()
    tree.kernel()
    tree.set_f("a", 8.0)  # cache dropped, not yet rebuilt
    clone = pickle.loads(pickle.dumps(tree))
    kern = clone.kernel()
    assert kern.f[kern.index["a"]] == 8.0
    assert_same_id_space(kern, clone)
