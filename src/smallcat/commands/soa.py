"""``smallcat soa``: the bounded small object argument on diagram maps."""
from . import FALSIFIED, OK, _load, _max_morphisms, _need, _print


def cmd_soa(args) -> int:
    from ..soa import bounded_soa
    from ..universal import compose_diagram_maps
    budget = _max_morphisms(args) * 5000
    loaded = _load(args.file)
    gens = [_need(loaded.dmaps, n, "dmap") for n in args.generators.split(",")]
    f = _need(loaded.dmaps, args.map, "dmap")
    res = bounded_soa(gens, f, args.max_stages, node_budget=budget)
    recomposed = compose_diagram_maps(res.right, res.left)
    payload = {
        "stages": res.stages,
        "saturated": res.saturated,
        "recomposes": recomposed.key() == f.key(),
        "middle_sizes": {o: len(res.middle.values[o])
                         for o in res.middle.shape.objects},
        "cells_per_stage": [len(cs) for cs in res.cells],
    }
    _print(payload, args.pretty)
    return OK if payload["recomposes"] else FALSIFIED
