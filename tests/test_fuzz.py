"""A seeded mutation fuzzer for mesh documents: every edit of a fixture
document either parses or is refused with ParseError or a MeshError
subclass."""

import copy
import json
import math
import os
import random
from collections import Counter

import tmeshdim.mesh
from tmeshdim import MeshError
from tmeshdim.mesh import MAX_LEVELS
from tmeshdim.meshfile import ParseError, parse_mesh_dict

from .helpers import FIXTURES

EDITS = 3000
VALUES = (None, True, False, 2 ** 70, -2 ** 70, 10 ** 6, 0.5, math.nan,
          "1/0", [], [1, 2], {}, {"r": 1})


def _slots(node, out):
    """Every (container, key) pair below node, at every depth."""
    for key, child in (node.items() if isinstance(node, dict)
                       else enumerate(node)):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def test_every_edit_of_a_fixture_parses_or_is_refused(monkeypatch):
    # each edit drops one member or element, or puts one value in its
    # place. The work a parse may do is bounded by counting the level chain
    # it builds, not by a clock: past MAX_LEVELS levels the builder must
    # not be asked for the chain at all
    steps = []
    real = tmeshdim.mesh._diagonal_first_steps

    def counted(a, b):
        steps.append(max(b[0] - a[0], b[1] - a[1]))
        assert sum(steps) < MAX_LEVELS, (a, b)
        return real(a, b)

    monkeypatch.setattr(tmeshdim.mesh, "_diagonal_first_steps", counted)
    docs = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".json"):
            with open(os.path.join(FIXTURES, name)) as f:
                docs.append((name, json.load(f)))
    rng = random.Random(2718)
    outcomes = Counter()
    escapes = []
    for k in range(EDITS):
        name, doc = rng.choice(docs)
        doc = copy.deepcopy(doc)
        node, key = rng.choice(_slots(doc, []))
        if rng.random() < 0.2:
            del node[key]
            edit = f"{name}: drop {key!r}"
        else:
            node[key] = copy.deepcopy(rng.choice(VALUES))
            edit = f"{name}: {key!r} = {node[key]!r}"
        steps.clear()
        try:
            parse_mesh_dict(doc)
        except (ParseError, MeshError) as exc:
            outcomes[type(exc).__name__] += 1
        except Exception as exc:  # noqa: BLE001 - every escape is listed
            escapes.append(f"edit {k}, {edit}: {exc!r}")
        else:
            outcomes["parsed"] += 1
    assert escapes == []
    # the edits reach both sides, and the level limit among the refusals
    assert outcomes["parsed"] and outcomes["ParseError"]
    assert outcomes["InvalidSequenceError"]
