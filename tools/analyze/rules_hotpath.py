"""Hot-path hygiene for the certification fast path.

Certification runs once per delivered transaction on every replica — the
per-delivery cost IS the replica's throughput ceiling (see
bench/cert_perf). These rules keep allocation and exception machinery
out of the functions on that path:

  hotpath-alloc          `new` / make_unique / make_shared in a hot body.
  hotpath-container-copy a container deep-copied in a hot body: a
                         container-typed local copy-initialized from an
                         lvalue chain, or a container parameter taken by
                         value. Move-inits from a call/std::move are fine.
  hotpath-throw          `throw` in a hot body: in audit-off builds
                         (benchmark configuration) these paths must
                         report verdicts, not unwind.

Hot functions are matched by name, per the certification call graph:
`certify*`, anything containing `conflict` (conflicts, conflicts_scan,
conflicts_indexed, reads_conflict, writes_conflict), and
`scan_after`. Under src/sdur/ the vote-exchange path is hot too:
`handle_vote*` bodies run once per received vote (unicast, batch entry,
or piggybacked ride), `record_vote*` once per vote entering a round, and
`flush_votes*` once per batch window per destination partition; the
completion loop (`drain*`: Server::drain_pending, which also bypasses
locals and speculates globals, and `head_stall*`, its head check) runs
after every delivery and every recorded vote; the out-of-order-commit
gate (anything containing `bypass` or starting with `park`/`unpark`:
park_on_insert, park_bound, unpark_on_removal, next_bypassable,
park_rebuild) runs on every delivery and every pending-head completion;
the speculative global commit path (anything starting with
`speculate`/`finalize`/`rollback`, under src/sdur/ and src/storage/:
Server::finalize, which resolves every certified transaction's slot and
applies a committed speculation's writes; no rollback* function exists
any more, the prefix stays so that one cannot return unchecked) runs
per speculated global and per completion; and
the read frontier (anything
containing `frontier` under src/sdur/: read_frontier, scan_frontier)
runs once per served read. Under src/paxos/ the value path is hot:
`on_phase2a` (once per accepted value on every member), `record_ack`
(once per acknowledgement), `decide` and `try_deliver` (once per decided
instance). Under src/trace/ the
span-emit path is hot: every
instrumented protocol step calls Tracer::record_*/append per delivered
transaction, and the tracer's zero-allocation-at-steady-state contract
(see src/trace/trace.h) dies if those bodies allocate or throw — there
`record*`, `emit*` and `append*` bodies are checked as well. Scope: the
protocol dirs (src/{sim,sdur,paxos,storage,pdur,trace}) —
workload/audit tooling may allocate freely.
"""

from __future__ import annotations

from cpplex import TOK_IDENT, Token
from cppmodel import FunctionDef, skip_balanced, skip_template_args, _split_top_level
from engine import Context, Finding, Rule

# paxos::Value is not here: it is a refcounted slice (util::SharedBytes),
# so copying one bumps a count and never copies bytes.
_CONTAINERS = {"vector", "deque", "string", "map", "set", "unordered_map",
               "unordered_set", "KeySet", "Bytes"}
_ALLOC_CALLS = {"make_unique", "make_shared"}
_CHAIN_OK = {".", "->", "::"}


def _is_hot(name: str, rel: str) -> bool:
    # Trailing underscore = data member by convention: a constructor's
    # member initializer (`ooo_bypass_(flag) { ... }`) parses as a
    # function definition whose "body" is the constructor's, and must not
    # make the constructor hot.
    if name.endswith("_"):
        return False
    if name == "scan_after" or name.startswith("certify") or "conflict" in name:
        return True
    # The vote delivery/flush path (src/sdur/): handle_vote* runs once per
    # received vote (unicast, batch entry, or piggybacked ride),
    # record_vote* once per vote entering a round, and flush_votes* once
    # per batch window per destination partition — see DESIGN.md "Vote
    # exchange & batching".
    if rel.startswith("src/sdur/") and name.startswith(
            ("handle_vote", "record_vote", "flush_votes")):
        return True
    # The completion loop (src/sdur/): drain* and its head check run after
    # every delivery and every recorded vote; the loop also hosts the
    # bypass and speculation passes — see DESIGN.md "Completion".
    if rel.startswith("src/sdur/") and name.startswith(("drain", "head_stall")):
        return True
    # The out-of-order local commit gate (src/sdur/): park_* and
    # unpark_* run per delivery / per pending removal, and the bypass
    # probe per completion — see DESIGN.md "Out-of-order local commit".
    if rel.startswith("src/sdur/") and ("bypass" in name or name.startswith(("park", "unpark"))):
        return True
    # The speculative-global-commit path (src/sdur/ + src/storage/):
    # speculate* helpers run once per eligible pending-list head (the head
    # speculation itself lives in drain_pending, above) and
    # Server::finalize once per completed transaction — see DESIGN.md
    # "Speculative global commit". rollback* matches nothing today (an
    # aborted speculation has nothing to undo); a future undo path would
    # run once per vote resolution.
    if (rel.startswith(("src/sdur/", "src/storage/"))
            and name.startswith(("speculate", "finalize", "rollback"))):
        return True
    # The read frontier (src/sdur/): the certifier's unresolved-writer
    # probe runs once per served or deferred read — see DESIGN.md
    # "Per-key read frontier".
    if rel.startswith("src/sdur/") and "frontier" in name:
        return True
    # The Paxos value path (src/paxos/): on_phase2a runs once per accepted
    # value on every member, record_ack once per acknowledgement, decide
    # and try_deliver once per decided instance — see DESIGN.md
    # "Simulation fabric hot path". A value travels there as one shared
    # buffer; a Bytes deep copy or a fresh buffer would copy it again.
    if rel.startswith("src/paxos/") and name in (
            "on_phase2a", "record_ack", "decide", "try_deliver"):
        return True
    # The tracer's record/emit/append path runs once per instrumented
    # protocol step; its zero-alloc contract is load-bearing.
    return rel.startswith("src/trace/") and name.startswith(("record", "emit", "append"))


def _is_lvalue_chain(tokens: list[Token]) -> bool:
    """True for a plain identifier/member chain (`probe.keys`, `s_->rs_`):
    copying from it deep-copies the container. Calls, moves, literals and
    arithmetic are not flagged."""
    if not tokens:
        return False
    for t in tokens:
        if t.kind != TOK_IDENT and t.text not in _CHAIN_OK:
            return False
    return tokens[-1].kind == TOK_IDENT


def _container_decl_copies(fn: FunctionDef, rel: str):
    toks = fn.body
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind != TOK_IDENT or t.text not in _CONTAINERS:
            i += 1
            continue
        j = i + 1
        if j < n and toks[j].text == "<":
            j = skip_template_args(toks, j)
        if j < n and toks[j].text in ("&", "*"):
            i = j  # reference/pointer: never a copy
            continue
        if j >= n or toks[j].kind != TOK_IDENT:
            i += 1
            continue
        name_tok = toks[j]
        k = j + 1
        init: list[Token] | None = None
        if k < n and toks[k].text == "=":
            init = []
            depth = 0
            k += 1
            while k < n:
                txt = toks[k].text
                if txt in "([{":
                    depth += 1
                elif txt in ")]}":
                    depth -= 1
                elif txt == ";" and depth == 0:
                    break
                init.append(toks[k])
                k += 1
        elif k < n and toks[k].text in ("(", "{"):
            close = skip_balanced(toks, k, toks[k].text)
            init = toks[k + 1 : close - 1]
            # multiple constructor args: not a plain copy
            if any(tt.text == "," for tt in init):
                init = None
        if init is not None and _is_lvalue_chain(init):
            yield Finding(
                rel, name_tok.line, "hotpath-container-copy", name_tok.text,
                f"`{name_tok.text}` deep-copies a container inside hot function "
                f"`{fn.name}` — certification pays this per delivered transaction")
        i = j + 1


def _byvalue_params(fn: FunctionDef, rel: str):
    for run in _split_top_level(fn.params):
        if not run:
            continue
        has_container = any(t.kind == TOK_IDENT and t.text in _CONTAINERS for t in run)
        if not has_container:
            continue
        if any(t.text in ("&", "*") for t in run):
            continue
        name = next((t.text for t in reversed(run) if t.kind == TOK_IDENT), "?")
        yield Finding(
            rel, run[0].line, "hotpath-container-copy", name,
            f"hot function `{fn.name}` takes container parameter `{name}` by value — "
            f"every call copies it")


def run_hotpath_hygiene(ctx: Context):
    for m in ctx.legacy_models():
        for fn in m.functions:
            if not _is_hot(fn.name, m.rel):
                continue
            toks = fn.body
            for i, t in enumerate(toks):
                if t.kind != TOK_IDENT:
                    continue
                if t.text == "new":
                    yield Finding(
                        m.rel, t.line, "hotpath-alloc", "new",
                        f"`new` inside hot function `{fn.name}` — the certification "
                        f"path must not allocate per delivery")
                elif t.text in _ALLOC_CALLS:
                    yield Finding(
                        m.rel, t.line, "hotpath-alloc", t.text,
                        f"`{t.text}` inside hot function `{fn.name}` — the certification "
                        f"path must not allocate per delivery")
                elif t.text == "throw":
                    yield Finding(
                        m.rel, t.line, "hotpath-throw", "throw",
                        f"`throw` inside hot function `{fn.name}` — audit-off protocol "
                        f"paths must report verdicts, not unwind")
            yield from _container_decl_copies(fn, m.rel)
            yield from _byvalue_params(fn, m.rel)


RULES = [
    Rule("hotpath-alloc",
         "no new/make_unique/make_shared in certify/conflicts_*/scan_after "
         "bodies, src/sdur/ handle_vote*/record_vote*/flush_votes* "
         "vote-exchange, drain*/head_stall* completion-loop, "
         "*bypass*/park*/unpark* out-of-order-commit, *frontier* read, and "
         "speculate*/finalize*/rollback* speculation bodies (also "
         "src/storage/), src/paxos/ on_phase2a/record_ack/decide/try_deliver "
         "value-path bodies, or src/trace/ record*/emit*/append* span-emit bodies",
         lambda ctx: (f for f in run_hotpath_hygiene(ctx) if f.rule == "hotpath-alloc"),
         suggestion="preallocate outside the certification path (reuse a "
                    "scratch buffer the caller owns, or a recycled slab like "
                    "sim/simulator.h's callable slab)"),
    Rule("hotpath-container-copy",
         "no container deep-copies (locals copy-initialized from lvalues, "
         "by-value container parameters) in hot certification, "
         "vote-exchange, completion-loop, out-of-order-commit, "
         "read-frontier, speculation, or Paxos value-path bodies",
         lambda ctx: (f for f in run_hotpath_hygiene(ctx) if f.rule == "hotpath-container-copy"),
         suggestion="take const&, or reuse a scratch buffer owned by the caller"),
    Rule("hotpath-throw",
         "no throwing constructs in audit-off protocol hot paths "
         "(certification, vote exchange, completion loop, out-of-order "
         "commit, read frontier, speculation, Paxos value path, and trace "
         "span-emit)",
         lambda ctx: (f for f in run_hotpath_hygiene(ctx) if f.rule == "hotpath-throw"),
         suggestion="return a verdict, or guard the invariant with SDUR_AUDIT_CHECK "
                    "(compiled out in benchmark builds)"),
]
