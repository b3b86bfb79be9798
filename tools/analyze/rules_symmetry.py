"""Encode/decode wire-format symmetry.

Scope: most wire structs state their fields once (`fields()`) and get
both codec halves from src/util/codec.h, so they are symmetric by
construction and have no codec bodies here to compare. This rule guards
the hand-written codecs left in the files it scans — PartTx (its layout
depends on its kind) and the Paxos batch helpers — and any new one.

For every codec pair defined in a wire-format file (src/*/messages.cpp,
src/sdur/transaction.cpp), the ordered sequence of typed codec
operations in the encoder must mirror the decoder — count, order, and
width — so wire-format skew is caught at lint time instead of in a
torture test. Calls into the generic codec written as
`util::encode(w, x)` / `x = util::decode<T>(r)` are not codec ops to this
rule: their width comes from the field's type, the same on both sides.
(The two-argument `util::decode(r, x)` would read as a sub-codec call
with no encoder counterpart.)

Pairing (within one file):
  Message X::to_message() const   <->  X X::decode(Reader&)
  void X::encode(Writer&) / Bytes X::encode()  <->  X::decode(...)
  Value encode_<name>(...)        <->  decode_<name>(...)
  void put_<name>(Writer&, ...)   <->  <T> get_<name>(Reader&)   (helpers)

Extraction walks the body token stream in order and records
  * primitive ops on the Writer/Reader object: u8/u16/u32/u64/i64/
    varint/bytes/raw — the op name *is* the width, so u32-vs-u64 skew is
    a finding;
  * helper calls put_X(w, ...) / get_X(r) as `helper:X`;
  * sub-codec calls `expr.encode(w)` / `T::decode(r)` as `sub`;
  * for/while loops as nested sequences (the loop body must mirror the
    loop body; a count varint before the loop is an ordinary op).

Branches are flattened in source order: a codec whose encoder and
decoder take the same branch structure (the only deterministic wire
format possible) compares equal; anything else is exactly the skew this
rule exists to catch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cpplex import TOK_IDENT, Token
from cppmodel import FunctionDef, skip_balanced
from engine import Context, Finding, Rule

_PRIMS = {"u8", "u16", "u32", "u64", "i64", "varint", "bytes", "raw"}
_SYMMETRY_FILES = re.compile(r"(^|/)(messages\.cpp|transaction\.cpp)$")


@dataclass
class Op:
    kind: str  # "prim" | "helper" | "sub" | "loop"
    what: str  # prim name, helper suffix, or "" for sub/loop
    line: int
    body: list["Op"] | None = None

    def describe(self) -> str:
        if self.kind == "prim":
            return self.what
        if self.kind == "helper":
            return f"helper `{self.what}`"
        if self.kind == "sub":
            return "a sub-codec call"
        return f"a loop of [{', '.join(o.describe() for o in self.body or [])}]"


def _collect_obj_names(tokens: list[Token], type_name: str) -> set[str]:
    """Names of locals/params of type `Writer`/`Reader` (optionally
    util::-qualified, optionally references): `Writer w;`, `Reader& r`,
    `util::Reader r(buf)`."""
    names: set[str] = set()
    for i, t in enumerate(tokens):
        if t.kind != TOK_IDENT or t.text != type_name:
            continue
        j = i + 1
        if j < len(tokens) and tokens[j].text == "&":
            j += 1
        if j < len(tokens) and tokens[j].kind == TOK_IDENT:
            names.add(tokens[j].text)
    return names


def _extract_ops(tokens: list[Token], objs: set[str], mode: str) -> list[Op]:
    """Ordered codec-op sequence of a body; `mode` is "enc" or "dec"."""
    ops: list[Op] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == TOK_IDENT and t.text in ("for", "while") \
                and i + 1 < n and tokens[i + 1].text == "(":
            after_head = skip_balanced(tokens, i + 1, "(")
            if after_head < n and tokens[after_head].text == "{":
                end = skip_balanced(tokens, after_head, "{")
                body = tokens[after_head + 1 : end - 1]
            else:
                # single-statement loop body: up to the ';' at depth 0
                depth = 0
                end = after_head
                while end < n:
                    txt = tokens[end].text
                    if txt in "([{":
                        depth += 1
                    elif txt in ")]}":
                        depth -= 1
                    elif txt == ";" and depth == 0:
                        break
                    end += 1
                body = tokens[after_head:end]
                end += 1
            inner = _extract_ops(body, objs, mode)
            if inner:
                ops.append(Op("loop", "", t.line, inner))
            i = end
            continue
        if t.kind == TOK_IDENT:
            nxt = tokens[i + 1] if i + 1 < n else None
            prv = tokens[i - 1] if i > 0 else None
            # w.u64(...) / r.u64()
            if t.text in objs and nxt is not None and nxt.text == "." \
                    and i + 3 < n and tokens[i + 2].kind == TOK_IDENT \
                    and tokens[i + 2].text in _PRIMS and tokens[i + 3].text == "(":
                ops.append(Op("prim", tokens[i + 2].text, t.line))
                i += 4
                continue
            # put_x(w, ...) / get_x(r)
            prefix = "put_" if mode == "enc" else "get_"
            if t.text.startswith(prefix) and len(t.text) > len(prefix) \
                    and nxt is not None and nxt.text == "(" \
                    and i + 2 < n and tokens[i + 2].text in objs:
                ops.append(Op("helper", t.text[len(prefix):], t.line))
                i += 3
                continue
            # expr.encode(w) / T::decode(r)
            if mode == "enc" and t.text == "encode" and prv is not None \
                    and prv.text == "." and nxt is not None and nxt.text == "(" \
                    and i + 2 < n and tokens[i + 2].text in objs:
                ops.append(Op("sub", "", t.line))
                i += 3
                continue
            if mode == "dec" and t.text == "decode" and prv is not None \
                    and prv.text == "::" and nxt is not None and nxt.text == "(" \
                    and i + 2 < n and tokens[i + 2].text in objs:
                ops.append(Op("sub", "", t.line))
                i += 3
                continue
        i += 1
    return ops


def _compare(enc: list[Op], dec: list[Op], where: str) -> str | None:
    """Returns a mismatch description, or None if the sequences mirror."""
    for k, (e, d) in enumerate(zip(enc, dec)):
        pos = f"field {k + 1}{where}"
        if e.kind != d.kind or (e.kind in ("prim", "helper") and e.what != d.what):
            if e.kind == "prim" and d.kind == "prim":
                return (f"{pos}: encoder writes `{e.what}` (line {e.line}) but decoder "
                        f"reads `{d.what}` (line {d.line}) — width/order skew")
            return (f"{pos}: encoder emits {e.describe()} (line {e.line}) but decoder "
                    f"consumes {d.describe()} (line {d.line})")
        if e.kind == "loop":
            msg = _compare(e.body or [], d.body or [], f" of the loop at {pos}")
            if msg:
                return msg
    if len(enc) != len(dec):
        lo = min(len(enc), len(dec))
        if len(enc) > len(dec):
            extra = enc[lo]
            return (f"encoder emits {len(enc)} field(s){where} but decoder consumes "
                    f"{len(dec)}: {extra.describe()} (line {extra.line}) is never read")
        extra = dec[lo]
        return (f"decoder consumes {len(dec)} field(s){where} but encoder emits "
                f"{len(enc)}: {extra.describe()} (line {extra.line}) is never written")
    return None


def _pair_name(fn: FunctionDef) -> tuple[str, str] | None:
    """(pair key, side) for a codec function, or None."""
    if fn.name == "to_message" and fn.qualifier:
        return fn.qualifier, "enc"
    if fn.name == "encode" and fn.qualifier:
        return fn.qualifier, "enc"
    if fn.name == "decode" and fn.qualifier:
        return fn.qualifier, "dec"
    if fn.name.startswith("encode_"):
        return fn.name[len("encode_"):], "enc"
    if fn.name.startswith("decode_"):
        return fn.name[len("decode_"):], "dec"
    if fn.name.startswith("put_"):
        return f"helper:{fn.name[len('put_'):]}", "enc"
    if fn.name.startswith("get_"):
        return f"helper:{fn.name[len('get_'):]}", "dec"
    return None


def run_symmetry(ctx: Context):
    for m in ctx.models:
        if not _SYMMETRY_FILES.search(m.rel):
            continue
        encoders: dict[str, FunctionDef] = {}
        decoders: dict[str, FunctionDef] = {}
        for fn in m.functions:
            pair = _pair_name(fn)
            if pair is None:
                continue
            key, side = pair
            (encoders if side == "enc" else decoders)[key] = fn
        for key in sorted(set(encoders) | set(decoders)):
            enc_fn = encoders.get(key)
            dec_fn = decoders.get(key)
            if enc_fn is None or dec_fn is None:
                present = enc_fn or dec_fn
                missing = "decoder" if dec_fn is None else "encoder"
                yield Finding(
                    m.rel, present.line, "encode-decode-symmetry", key,
                    f"codec `{key}` has no matching {missing} in this file — "
                    f"symmetry cannot be checked", severity="warning")
                continue
            enc_objs = _collect_obj_names(enc_fn.params + enc_fn.body, "Writer")
            dec_objs = _collect_obj_names(dec_fn.params + dec_fn.body, "Reader")
            enc_ops = _extract_ops(enc_fn.body, enc_objs, "enc")
            dec_ops = _extract_ops(dec_fn.body, dec_objs, "dec")
            msg = _compare(enc_ops, dec_ops, "")
            if msg:
                yield Finding(
                    m.rel, dec_fn.line, "encode-decode-symmetry", key,
                    f"wire-format skew in codec `{key}`: {msg}")


RULES = [
    Rule("encode-decode-symmetry",
         "encoder and decoder of each wire message must mirror each other's "
         "typed codec calls (count, order, width)",
         run_symmetry,
         suggestion="make decode read exactly the fields encode writes, in the "
                    "same order and width"),
]
