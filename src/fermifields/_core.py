"""Hot kernels for the sparse Grassmann engine: word merge, sparse
wedge of term dictionaries, and single-generator contraction.

Words are strictly increasing tuples of generator ordinals.  ``BACKEND``
names the implementation in run records.  The module keeps no cache: a
wedge calls :func:`merge_words` on every word pair.
"""

from __future__ import annotations

BACKEND = "python"

__all__ = ["BACKEND", "merge_words", "wedge_terms", "contract"]


def merge_words(wa: tuple, wb: tuple):
    """Merge two increasing words; return ``(sign, word)`` or ``None``.

    ``sign`` is the Koszul sign of interleaving ``wb`` into ``wa``; the
    result is ``None`` when the words share a generator (zero monomial).
    """
    la, lb = len(wa), len(wb)
    if lb == 0:
        return 1, wa
    if la == 0:
        return 1, wb
    out = []
    i = j = 0
    crossings = 0
    while i < la and j < lb:
        a, b = wa[i], wb[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            crossings += la - i
            j += 1
    if i < la:
        out.extend(wa[i:])
    else:
        out.extend(wb[j:])
    return (1 if crossings % 2 == 0 else -1), tuple(out)


def wedge_terms(ta: dict, tb: dict) -> dict:
    """Sparse product of two term dictionaries ``{word: coeff}``."""
    out: dict = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            m = merge_words(wa, wb)
            if m is None:
                continue
            sign, w = m
            c = ca * cb
            if sign < 0:
                c = -c
            if w in out:
                out[w] = out[w] + c
            else:
                out[w] = c
    return out


def contract(terms: dict, g: int) -> dict:
    """Left derivative by generator ``g`` on a term dictionary."""
    out: dict = {}
    for w, c in terms.items():
        try:
            k = w.index(g)
        except ValueError:
            continue
        nw = w[:k] + w[k + 1:]
        if k % 2 == 1:
            c = -c
        if nw in out:
            out[nw] = out[nw] + c
        else:
            out[nw] = c
    return out
