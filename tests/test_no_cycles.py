"""No op leaves cyclic garbage.

Reference counting frees an object the moment its last reference goes,
unless it sits in a reference cycle; then it waits for the cyclic
collector, and so does everything it refers to.  A nested function that
calls itself is such a cycle (function -> closure cell -> function), made
anew on every call of the function around it, and everything its
closure holds (for a copy: the memo and every node copied) waits with
it.  The collector took about a fifth of each benchmark op when the
walks were closures.

So no nested function on the op path (parse, validate, FIRST, FOLLOW,
rendering and the lookups) refers to itself.  A recursive walk is a
module-level function that takes its state as arguments (``fs._cp``,
``grammar._count_refs`` and ``_render``) or a loop (``firstfollow``'s
enumerator of empty-string bindings steps level by level), and the
package never touches the collector's settings.  With the collector off,
a collection after each op finds nothing.
"""

import gc
import random
from collections import Counter

from featflow.firstfollow import (
    MODES,
    UnknownCategory,
    compute_first,
    compute_follow,
    first_of_string,
    format_pair,
    query,
)
from featflow.grammar import format_roots, parse_category_sequence, parse_grammar, validate
from cf_oracle import random_cf_grammar, random_feature_grammar
from support import load_fixture

FIXTURES = ("agr.gr", "bench13.gr", "bench21.gr", "cf-intro.gr", "fig1.gr", "guard.gr")


def analyse(g):
    """Every analysis step an op takes, in both modes; returns active FIRST
    and FOLLOW."""
    validate(g)
    for mode in MODES:
        first, _ = compute_first(g, mode)
        follow, _ = compute_follow(g, first, mode)
        for p in (*first, *follow):
            format_pair(p)
    return first, follow


def look_up(g, first, follow, text):
    cats = parse_category_sequence(text)
    try:
        for p in first_of_string(first, g, cats):
            format_pair(p)
    except UnknownCategory:
        pass
    for c in cats:
        query(first, c)
        query(follow, c)


def test_no_op_leaves_cyclic_garbage():
    rng = random.Random(10)
    texts = [random_cf_grammar(rng)[0] for _ in range(3)] + [random_feature_grammar(rng) for _ in range(3)]
    grammars = [load_fixture(n, restrictor=["orth"] if n == "guard.gr" else None) for n in FIXTURES]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, g in zip(FIXTURES, grammars):
            first, follow = analyse(g)
            if name == "fig1.gr":
                for text in ("NP[] NP[] VP[]", "Det[]", "NP[] VP[]"):
                    look_up(g, first, follow, text)
        for text in texts:
            g = parse_grammar(text)
            first, follow = analyse(g)
            cats = [c for r in g.rules for c in r.roots()]
            for _ in range(3):
                picked = [rng.choice(cats) for _ in range(rng.randint(1, 3))]
                look_up(g, first, follow, " ".join(format_roots([c])[0] for c in picked))
        found = gc.collect()
        assert found == 0, Counter(type(o).__name__ for o in gc.garbage).most_common(6)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
