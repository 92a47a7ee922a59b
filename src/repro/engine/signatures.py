"""Subexpression signatures: the lightweight hashes behind reuse.

CloudViews [21, 22] relies on "a lightweight subexpression hash, called a
signature, for scalable materialized view selection and efficient view
matching"; Peregrine [20] categorizes queries into templates "based on
their recurrence and similarity".

Two hash flavours are provided:

- :func:`signature` — the *strict* signature: includes predicate literal
  values, so two subexpressions match only if they compute identical
  results.  This is the CloudViews view-matching key.
- :func:`template_signature` — the *template* signature: predicate
  literals are masked, so periodic runs of the same script with different
  predicate values (the SCOPE recurring-job pattern) collapse to one
  template.  This is the Peregrine templatization key and the micromodel
  routing key for learned cardinality/cost.

Both flavours are computed together in a single bottom-up pass and
memoized on the (immutable) expression nodes, so repeated calls — and
calls on any node of an already-hashed plan — are O(1) dictionary reads
instead of a fresh tree walk plus SHA1 per call.  :func:`signatures`
exposes the pair directly; :func:`enumerate_all_signatures` builds the
strict and template subexpression maps in one traversal.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from repro.engine.expr import (
    Aggregate,
    Expression,
    Filter,
    Join,
    Project,
    Scan,
    Union,
)

#: Instance-dict slot holding the memoized (strict, template) pair.
#: Expression nodes are frozen dataclasses, so once built their hashes
#: can never go stale; ``dataclasses.replace`` builds fresh instances
#: without the cache entry.  Pickle keeps every ``_memo_*`` entry (they
#: live in the instance dict), so a memoized plan pickles several times
#: larger and slower than a bare one — one reason spilled Peregrine days
#: store ad-hoc plans as recipes rather than trees.
_SIG_ATTR = "_memo_signatures"

#: Instance-dict slot holding the memoized per-subtree signature sets.
_SIGSET_ATTR = "_memo_signature_sets"


class PlanSignatures(NamedTuple):
    """Both signature flavours of one expression node."""

    strict: str
    template: str


class SignatureSets(NamedTuple):
    """Every signature carried anywhere in one subtree, both flavours.

    The inverted-index primitive behind CloudViews matching: a plan
    contains a candidate subexpression iff the candidate's strict
    signature is a member of the plan's strict set — an O(1) lookup
    instead of a node-by-node structural-equality walk.
    """

    strict: frozenset[str]
    template: frozenset[str]


def _describe(node: Expression, mask_literals: bool) -> str:
    if isinstance(node, Scan):
        return f"Scan:{node.table}"
    if isinstance(node, Filter):
        parts = []
        for p in node.predicates:
            value = "?" if mask_literals else f"{p.value!r}"
            parts.append(f"{p.column}{p.op}{value}")
        return f"Filter:{'&'.join(parts)}"
    if isinstance(node, Project):
        return f"Project:{','.join(node.columns)}"
    if isinstance(node, Join):
        return f"Join:{node.left_key}={node.right_key}"
    if isinstance(node, Aggregate):
        return f"Aggregate:{','.join(node.group_by)}"
    if isinstance(node, Union):
        return "Union"
    raise TypeError(f"unknown expression node: {type(node).__name__}")


def _digest(payload: str) -> str:
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def signatures(expr: Expression) -> PlanSignatures:
    """Strict and template signatures of ``expr`` in one cached pass.

    The first call walks the subtree bottom-up once, computing both
    flavours per node; every node visited is memoized, so subsequent
    calls on the plan *or any of its subexpressions* are O(1).
    """
    cached = expr.__dict__.get(_SIG_ATTR)
    if cached is not None:
        return cached
    child_sigs = [signatures(child) for child in expr.children]
    strict_desc = _describe(expr, mask_literals=False)
    # Only Filter nodes carry literals; everything else shares one label.
    template_desc = (
        _describe(expr, mask_literals=True)
        if isinstance(expr, Filter)
        else strict_desc
    )
    strict_children = "|".join(s.strict for s in child_sigs)
    template_children = "|".join(s.template for s in child_sigs)
    sigs = PlanSignatures(
        strict=_digest(f"{strict_desc}({strict_children})"),
        template=_digest(f"{template_desc}({template_children})"),
    )
    object.__setattr__(expr, _SIG_ATTR, sigs)
    return sigs


def signature_sets(expr: Expression) -> SignatureSets:
    """Memoized (strict set, template set) of every node under ``expr``.

    Built bottom-up from the children's cached sets, so hashing any plan
    once makes membership tests on it — and on every subtree of it —
    O(1) for the rest of the process lifetime.
    """
    cached = expr.__dict__.get(_SIGSET_ATTR)
    if cached is not None:
        return cached
    sigs = signatures(expr)
    strict: set[str] = {sigs.strict}
    template: set[str] = {sigs.template}
    for child in expr.children:
        child_sets = signature_sets(child)
        strict |= child_sets.strict
        template |= child_sets.template
    sets = SignatureSets(frozenset(strict), frozenset(template))
    object.__setattr__(expr, _SIGSET_ATTR, sets)
    return sets


def signature(expr: Expression) -> str:
    """Strict structural hash; equal results <=> equal signatures."""
    return signatures(expr).strict


def template_signature(expr: Expression) -> str:
    """Literal-masked hash; groups recurring instances into one template."""
    return signatures(expr).template


def semantic_signature(expr: Expression) -> str:
    """Signature modulo semantics-preserving syntax differences.

    Two subexpressions that compute identical results but were written
    differently still match: predicate order within a conjunct is
    irrelevant, and an equi-join is symmetric, so joins canonicalize by
    ordering their children.  This extends CloudViews matching "from the
    syntactically equivalent subexpressions detected by the signatures to
    semantically equivalent ... subexpressions" (Section 4.2).
    """
    return signatures(_canonicalize(expr)).strict


def _canonicalize(node: Expression) -> Expression:
    """Rewrite to the canonical representative of the semantic class."""
    from dataclasses import replace

    children = tuple(_canonicalize(child) for child in node.children)
    if children != node.children:
        node = node.with_children(children)
    if isinstance(node, Filter):
        ordered = tuple(
            sorted(node.predicates, key=lambda p: (p.column, p.op, p.value))
        )
        if ordered != node.predicates:
            node = replace(node, predicates=ordered)
    elif isinstance(node, Join):
        left_hash = signatures(node.left).strict
        right_hash = signatures(node.right).strict
        if (right_hash, node.right_key) < (left_hash, node.left_key):
            node = Join(node.right, node.left, node.right_key, node.left_key)
    elif isinstance(node, Union):
        left_hash = signatures(node.left).strict
        right_hash = signatures(node.right).strict
        if right_hash < left_hash:
            node = Union(node.right, node.left)
    return node


def enumerate_signatures(expr: Expression, strict: bool = True) -> dict[str, Expression]:
    """Signature -> subexpression map for every node in ``expr``.

    When several nodes share a signature (identical subtrees appearing
    twice in one plan), the first in post-order wins; they are
    interchangeable by construction.
    """
    out: dict[str, Expression] = {}
    for node in expr.walk():
        sigs = signatures(node)
        out.setdefault(sigs.strict if strict else sigs.template, node)
    return out


def enumerate_all_signatures(
    expr: Expression,
) -> tuple[dict[str, Expression], dict[str, Expression]]:
    """(strict map, template map) for every node, in a single traversal.

    Equivalent to calling :func:`enumerate_signatures` twice but walks
    the plan once — the shape workload-repository ingestion needs.
    """
    strict_map: dict[str, Expression] = {}
    template_map: dict[str, Expression] = {}
    for node in expr.walk():
        sigs = signatures(node)
        strict_map.setdefault(sigs.strict, node)
        template_map.setdefault(sigs.template, node)
    return strict_map, template_map
