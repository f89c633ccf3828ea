"""Walks over an accepted edge set, shared by the global-inference tests
and the acceptance suite."""

from typing import Iterator


def iter_chains(
    edge_keys: tuple[tuple[str, str], ...]
) -> Iterator[tuple[str, ...]]:
    """Maximal eventuality chains: forward walks from in-degree-0 nodes
    over one path's accepted edge set."""
    out: dict[str, list[str]] = {}
    has_incoming: set[str] = set()
    for src, dst in sorted(edge_keys):
        out.setdefault(src, []).append(dst)
        has_incoming.add(dst)
    starts = sorted(n for n in out if n not in has_incoming)

    def walk(node: str, trail: list[str]) -> Iterator[tuple[str, ...]]:
        trail.append(node)
        nexts = out.get(node)
        if not nexts:
            yield tuple(trail)
        else:
            for nxt in nexts:
                yield from walk(nxt, trail)
        trail.pop()

    for start in starts:
        yield from walk(start, [])
