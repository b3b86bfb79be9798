"""Technique-configuration single-source rule.

Every optional-technique knob lives in sdur::TechniqueConfig (see
DESIGN.md "Technique configuration"): one struct, one string grammar,
consumed by the benches, the CLI and the tests alike. History shows the
failure mode — before the unification, reorder/delaying/bloom flags were
plumbed by hand in three places and drifted. The rule pins the contract
structurally:

  config-single-source   a plain `bool` data member declared in a struct
                         other than TechniqueConfig inside the
                         src/sdur/*config*.h headers. Technique toggles
                         are bools; a new one belongs in TechniqueConfig,
                         where the grammar, presets, validate() and the
                         format/parse round trip pick it up for free.
                         A `bool&` member is flagged too: a reference
                         re-exporting a TechniqueConfig knob under a
                         second name is a second source. Only `bool`
                         function declarations are exempt.

Scope: headers under src/sdur/ whose name ends in `config.h` (config.h,
technique_config.h). Other layers keep their own bools (pdur::Config is
a structural model, not a technique toggle).
"""

from __future__ import annotations

from cpplex import TOK_IDENT
from engine import Context, Finding, Rule

_EXEMPT_STRUCTS = {"TechniqueConfig"}


def _struct_bool_members(m):
    """Yields (struct_name, name_token) for every `bool` or `bool&` data
    member of every struct/class body in the file, tracking nesting."""
    toks = m.tokens
    n = len(toks)
    # Stack of (struct_name_or_None, entry_depth); None = non-struct brace.
    stack: list[tuple[str | None, int]] = []
    depth = 0
    i = 0
    while i < n:
        t = toks[i]
        if t.text in ("struct", "class") and t.kind == TOK_IDENT:
            # struct NAME [final] [: bases] { — find the opening brace
            # before any ';' (which would make it a forward declaration).
            j = i + 1
            name = None
            if j < n and toks[j].kind == TOK_IDENT:
                name = toks[j].text
                j += 1
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j < n and toks[j].text == "{" and name is not None:
                stack.append((name, depth))
                depth += 1
                i = j + 1
                continue
            i = j + 1
            continue
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
            if stack and depth == stack[-1][1]:
                stack.pop()
        elif t.text == "bool" and stack and depth == stack[-1][1] + 1:
            # A member at the immediate body depth of the innermost
            # struct. `bool f(...)` is a function; `bool x = ...;`,
            # `bool x;` and the reference `bool& x = ...;` data members.
            j = i + 1
            if j < n and toks[j].text == "&":
                j += 1
            if j < n and toks[j].kind == TOK_IDENT and toks[j].text != "operator":
                name_tok = toks[j]
                k = j + 1
                if k < n and toks[k].text in ("=", ";", "{"):
                    yield stack[-1][0], name_tok
                    i = k
                    continue
        i += 1


def run_config_single_source(ctx: Context):
    for m in ctx.models:
        if not m.rel.startswith("src/sdur/") or not m.rel.endswith("config.h"):
            continue
        for struct, tok in _struct_bool_members(m):
            if struct in _EXEMPT_STRUCTS:
                continue
            yield Finding(
                m.rel, tok.line, "config-single-source", tok.text,
                f"bool knob `{tok.text}` declared in `{struct}` — technique "
                f"toggles belong in TechniqueConfig (grammar/presets/validate "
                f"pick them up), reached as `techniques.{tok.text}`")


RULES = [
    Rule("config-single-source",
         "technique bool knobs in src/sdur/*config*.h, reference aliases "
         "included, must be declared inside TechniqueConfig (functions exempt)",
         run_config_single_source,
         suggestion="move the knob into TechniqueConfig and migrate callers to "
                    "`cfg.techniques.name`; do not alias it under an old name"),
]
