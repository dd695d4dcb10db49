"""Hot kernels for the sparse Grassmann engine: word merge, sparse
wedge of term dictionaries, and single-generator contraction.

Words are strictly increasing tuples of generator ordinals.  ``BACKEND``
names the implementation in run records.

The wedge can memoise word merges in a ``merges`` dict that its caller
owns and passes to a batch of wedges over the same words (one kernel
composition, say), then drops; the module keeps no cache of its own.
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


def wedge_terms(ta: dict, tb: dict, merges: dict | None = None) -> dict:
    """Sparse product of two term dictionaries ``{word: coeff}``.

    With ``merges`` given, the :func:`merge_words` result of each word
    pair is looked up in, or stored into, ``merges[wa][wb]`` as
    ``(sign, word)``, or ``0`` when the words share a generator.  The
    caller may share one dict across any number of calls; the product
    is the same as without it.
    """
    out: dict = {}
    for wa, ca in ta.items():
        row = None if merges is None else merges.setdefault(wa, {})
        for wb, cb in tb.items():
            if row is None:
                m = merge_words(wa, wb)
            else:
                m = row.get(wb)
                if m is None:
                    m = row[wb] = merge_words(wa, wb) or 0
            if not m:
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
