"""Determinism rules, migrated from the legacy regex linter (since
removed) onto the token model.

The seven rules and their allowlist token forms are unchanged — an entry
`<path>:<rule>:<token>` written for the legacy linter keeps working —
but the documented false-positive/false-negative classes are gone:
matches inside string literals, raw strings and block comments no longer
fire, and multi-line declarations, multi-line range-for statements,
multi-line lambda capture lists and structured bindings are all seen.

Scope: the legacy scan dirs (src/{sim,sdur,paxos,storage,pdur}), so the
migrated rules reproduce the legacy linter's findings file for file
(pinned by the analyzer selftest's legacy_pin fixture tree).
"""

from __future__ import annotations

import re

from cpplex import TOK_IDENT, TOK_PUNCT
from cppmodel import FileModel, first_template_arg, spell
from engine import Context, Finding, Rule

_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}
_CLOCK_CALLS = {"gettimeofday", "clock_gettime", "localtime", "gmtime"}
_MESSAGE_NAMES = {"m", "msg", "message"}
_MEMBER_ACCESS = {".", "->", "::"}
_CERT_INDEX_FILE = re.compile(r"(^|/)(?:cert_index|commit_window)\.(?:h|cpp)$")
_UNORDERED_TOKENS = {"unordered_map", "unordered_set",
                     "unordered_multimap", "unordered_multiset"}


def _prev(tokens, i):
    return tokens[i - 1] if i > 0 else None


def _nxt(tokens, i, k=1):
    return tokens[i + k] if i + k < len(tokens) else None


def _is_member_access(tokens, i) -> bool:
    p = _prev(tokens, i)
    return p is not None and p.text in _MEMBER_ACCESS


def run_wall_clock(ctx: Context):
    for m in ctx.legacy_models():
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind != TOK_IDENT:
                continue
            if t.text in _CLOCKS and i >= 4 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "chrono" \
                    and toks[i - 3].text == "::" and toks[i - 4].text == "std":
                tok = f"std::chrono::{t.text}"
                yield Finding(m.rel, t.line, "wall-clock", tok,
                              f"real-time source `{tok}` — use sim::Simulator time")
            elif t.text in _CLOCK_CALLS and (n := _nxt(toks, i)) and n.text == "(":
                yield Finding(m.rel, t.line, "wall-clock", t.text,
                              f"real-time source `{t.text}` — use sim::Simulator time")
            elif t.text == "time" and not _is_member_access(toks, i):
                n1, n2, n3 = _nxt(toks, i, 1), _nxt(toks, i, 2), _nxt(toks, i, 3)
                if n1 and n1.text == "(" and n2 and n2.text in ("NULL", "nullptr", "0") \
                        and n3 and n3.text == ")":
                    yield Finding(m.rel, t.line, "wall-clock", "time",
                                  f"real-time source `time({n2.text})` — use sim::Simulator time")


def run_unseeded_random(ctx: Context):
    for m in ctx.legacy_models():
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind != TOK_IDENT:
                continue
            if t.text == "random_device" and i >= 2 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std":
                yield Finding(m.rel, t.line, "unseeded-random", "std::random_device",
                              "non-seeded entropy `std::random_device` — use the seeded util::Rng")
            elif t.text == "srand" and not _is_member_access(toks, i) \
                    and (n := _nxt(toks, i)) and n.text == "(":
                yield Finding(m.rel, t.line, "unseeded-random", "srand",
                              "non-seeded entropy `srand` — use the seeded util::Rng")
            elif t.text == "rand" and not _is_member_access(toks, i):
                n1, n2 = _nxt(toks, i, 1), _nxt(toks, i, 2)
                if n1 and n1.text == "(" and n2 and n2.text == ")":
                    yield Finding(m.rel, t.line, "unseeded-random", "rand",
                                  "non-seeded entropy `rand()` — use the seeded util::Rng")


def run_unordered_iteration(ctx: Context):
    names = ctx.unordered_names()
    for m in ctx.legacy_models():
        for rf in m.range_fors():
            if rf.container in names:
                yield Finding(
                    m.rel, rf.line, "unordered-iteration", rf.container,
                    f"range-for over unordered container `{rf.container}` — iteration order can "
                    "leak into protocol state; use an ordered container or sort first")


def run_pointer_key(ctx: Context):
    for m in ctx.legacy_models():
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind != TOK_IDENT or t.text not in ("map", "set",
                                                     "unordered_map", "unordered_set"):
                continue
            if not ((n := _nxt(toks, i)) and n.text == "<"):
                continue
            arg = first_template_arg(toks, i + 1)
            if not arg or arg[-1].text != "*":
                continue
            key_type = spell(arg)
            if "char" in key_type:
                continue
            yield Finding(m.rel, t.line, "pointer-key", key_type,
                          f"container keyed by pointer `{key_type}` — ordering/hash depends on "
                          "allocator addresses")


def run_hotpath_std_function(ctx: Context):
    for m in ctx.legacy_models():
        if not m.rel.startswith("src/sim/"):
            continue
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind == TOK_IDENT and t.text == "function" and i >= 2 \
                    and toks[i - 1].text == "::" and toks[i - 2].text == "std" \
                    and (n := _nxt(toks, i)) and n.text == "<":
                yield Finding(m.rel, t.line, "hotpath-std-function", "std::function",
                              "std::function on the fabric hot path — use sim::UniqueFn "
                              "(sim/callable.h): move-only, inline storage, no per-event allocation")


def run_message_copy_capture(ctx: Context):
    for m in ctx.legacy_models():
        if not m.rel.startswith("src/sim/"):
            continue
        for items in m.lambda_captures():
            for item in items:
                if item.by_ref:
                    continue
                if item.init is None:
                    if item.name in _MESSAGE_NAMES:
                        yield Finding(
                            m.rel, item.line, "message-copy-capture", item.name,
                            f"lambda copy-captures Message `{item.name}` — capture with "
                            "std::move to keep deliveries zero-copy")
                elif len(item.init) == 1 and item.init[0].kind == TOK_IDENT \
                        and item.init[0].text in _MESSAGE_NAMES:
                    yield Finding(
                        m.rel, item.line, "message-copy-capture", item.name,
                        f"lambda copy-captures Message `{item.init[0].text}` — capture with "
                        "std::move to keep deliveries zero-copy")


def run_cert_index_iteration(ctx: Context):
    for m in ctx.legacy_models():
        if not _CERT_INDEX_FILE.search(m.rel):
            continue
        toks = m.tokens
        for i, t in enumerate(toks):
            if t.kind != TOK_IDENT:
                continue
            if t.text == "for_each" and (n := _nxt(toks, i)) and n.text == "(":
                yield Finding(m.rel, t.line, "cert-index-iteration", "for_each",
                              "hash-order iteration in the certification index or window — "
                              "the indexes are probe-only; per-key probes are fine, table "
                              "walks are not")
            elif t.text in _UNORDERED_TOKENS:
                yield Finding(m.rel, t.line, "cert-index-iteration", t.text,
                              f"`{t.text}` in the certification index or window — use the "
                              "probe-only FlatTable (storage/flat_table.h); no iterable hash "
                              "containers here")


RULES = [
    Rule("wall-clock",
         "real-time sources (std::chrono clocks, time(), gettimeofday, ...) "
         "instead of simulated time",
         run_wall_clock,
         suggestion="read virtual time from sim::Simulator / sim::Process"),
    Rule("unseeded-random",
         "std::random_device, rand()/srand(): entropy or global PRNG state "
         "outside the seeded sim RNG",
         run_unseeded_random,
         suggestion="draw from the seeded util::Rng owned by the simulation"),
    Rule("unordered-iteration",
         "range-for over a std::unordered_{map,set} whose iteration order can "
         "leak into protocol decisions or serialized state",
         run_unordered_iteration,
         suggestion="use an ordered container, keep a side order list, or sort "
                    "before iterating"),
    Rule("pointer-key",
         "containers keyed by pointer values: iteration order and hashes "
         "depend on allocator addresses",
         run_pointer_key,
         suggestion="key by a stable id (TxId, ProcessId, index) instead of an address"),
    Rule("hotpath-std-function",
         "(src/sim only) std::function on the fabric hot path",
         run_hotpath_std_function,
         suggestion="store sim::UniqueFn (sim/callable.h) instead"),
    Rule("message-copy-capture",
         "(src/sim only) lambda capture that copies a Message",
         run_message_copy_capture,
         suggestion="capture with std::move; a copy re-counts the payload on "
                    "every scheduled delivery"),
    Rule("cert-index-iteration",
         "(src/storage/cert_index.* and commit_window.* only) any hash-order "
         "iteration in the certification index or the window holding it, "
         "which are probe-only by contract",
         run_cert_index_iteration,
         no_allowlist=True,
         suggestion="restructure as per-key probes; the rule accepts no allowlist "
                    "entries by design"),
]
