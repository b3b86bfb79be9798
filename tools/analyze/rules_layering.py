"""Layering rules: enforce the src/ dependency DAG from actual #include
graphs, plus file-level include-cycle detection.

The enforced DAG (see DESIGN.md "Static analysis"):

    util <- audit <- sim <- storage <- paxos
                      ^       ^          ^
                      |       |          |
                    trace   pdur <---- sdur <- workload

i.e. each layer may include only the layers listed for it below. This
refines the coarse sketch `util <- sim <- {storage, workload} <- paxos
<- sdur <- pdur` with the facts of this codebase: `audit` is the
cross-cutting invariant layer (includes only util, includable from any
protocol layer); `pdur` sits *below* `sdur` (sdur::Certifier and
sdur::Server use the core partitioner and the executor, not the other
way around); `trace` is the observability
layer — it sees util and sim (for sim::Time) and every protocol layer
may include it, but `sim` itself must never depend on trace (the
simulator's schedule cannot be influenced by whether tracing is
compiled in); and `workload` is the top-of-stack driver layer. The
config below is the source of truth; the rule fails on any edge outside
it, and on any #include cycle among the scanned files regardless of
layers.
"""

from __future__ import annotations

from engine import Context, Finding, Rule

# layer -> layers it may #include (self-includes are always allowed).
ALLOWED_DEPS: dict[str, set[str]] = {
    "util": set(),
    "audit": {"util"},
    "sim": {"util", "audit"},
    "trace": {"util", "sim"},
    "storage": {"util", "audit", "sim"},
    "paxos": {"util", "audit", "sim", "storage", "trace"},
    "pdur": {"util", "audit", "sim", "storage", "trace"},
    "sdur": {"util", "audit", "sim", "storage", "paxos", "pdur", "trace"},
    "workload": {"util", "audit", "sim", "storage", "sdur", "pdur", "trace"},
}


def _check_config_acyclic() -> None:
    """The allowed-deps map itself must be a DAG — a config mistake here
    would quietly legalize a cycle."""
    seen: dict[str, int] = {}  # 0=visiting, 1=done

    def visit(layer: str, stack: list[str]) -> None:
        state = seen.get(layer)
        if state == 1:
            return
        if state == 0:
            raise RuntimeError(f"layering config cycle: {' -> '.join(stack + [layer])}")
        seen[layer] = 0
        for dep in ALLOWED_DEPS.get(layer, set()):
            visit(dep, stack + [layer])
        seen[layer] = 1

    for l in ALLOWED_DEPS:
        visit(l, [])


_check_config_acyclic()


def _layer_of(rel: str) -> str | None:
    parts = rel.split("/")
    return parts[1] if len(parts) >= 3 and parts[0] == "src" else None


def run_layering(ctx: Context):
    for m in ctx.models:
        layer = _layer_of(m.rel)
        if layer is None or layer not in ALLOWED_DEPS:
            continue
        allowed = ALLOWED_DEPS[layer]
        for inc in m.includes:
            dep = inc.target.split("/")[0]
            if dep not in ALLOWED_DEPS or dep == layer or dep in allowed:
                continue
            yield Finding(
                m.rel, inc.line, "layering", dep,
                f"`src/{layer}` may not include `{inc.target}`: the layering DAG "
                f"allows {layer} -> {{{', '.join(sorted(allowed)) or 'nothing'}}} only")


def run_include_cycle(ctx: Context):
    by_rel = {m.rel: m for m in ctx.models}
    # Edges: quoted includes resolved against src/ (the only include root).
    graph: dict[str, list[tuple[str, int]]] = {}
    for m in ctx.models:
        edges = []
        for inc in m.includes:
            target = f"src/{inc.target}"
            if target in by_rel:
                edges.append((target, inc.line))
        graph[m.rel] = edges

    WHITE, GREY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in graph}
    reported: set[tuple[str, ...]] = set()

    def canonical(cycle: list[str]) -> tuple[str, ...]:
        k = cycle.index(min(cycle))
        return tuple(cycle[k:] + cycle[:k])

    def dfs(start: str):
        stack: list[tuple[str, int]] = [(start, 0)]
        path = [start]
        color[start] = GREY
        while stack:
            node, ei = stack[-1]
            edges = graph[node]
            if ei >= len(edges):
                stack.pop()
                path.pop()
                color[node] = BLACK
                continue
            stack[-1] = (node, ei + 1)
            nxt, line = edges[ei]
            if color[nxt] == GREY:
                cyc = canonical(path[path.index(nxt):])
                if cyc not in reported:
                    reported.add(cyc)
                    yield Finding(
                        node, line, "include-cycle", " -> ".join(cyc + (cyc[0],)),
                        f"#include cycle: {' -> '.join(cyc + (cyc[0],))}")
            elif color[nxt] == WHITE:
                color[nxt] = GREY
                stack.append((nxt, 0))
                path.append(nxt)

    for rel in sorted(graph):
        if color[rel] == WHITE:
            yield from dfs(rel)


RULES = [
    Rule("layering",
         "src/ dependency DAG enforced from actual #include graphs "
         "(util <- audit <- sim <- {trace, storage} <- {paxos, pdur} <- sdur "
         "<- workload; sim never includes trace)",
         run_layering,
         suggestion="move the shared type down a layer, or invert the dependency "
                    "with a callback/interface owned by the lower layer"),
    Rule("include-cycle",
         "#include cycle among scanned files",
         run_include_cycle,
         no_allowlist=True,
         suggestion="break the cycle with a forward declaration or by splitting "
                    "the header"),
]
