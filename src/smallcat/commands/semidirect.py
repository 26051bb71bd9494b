"""``smallcat semidirect``: a semidirect product, built and checked."""
from . import FALSIFIED, OK, _load, _need, _print


def cmd_semidirect(args) -> int:
    from .. import semidirect
    from ..fincat import validate_category
    from ..sdcheck import validate_action, verify_lan_formula
    loaded = _load(args.file)
    action = _need(loaded.actions, args.action, "action")
    sd = semidirect.semidirect(action)
    payload = {
        "objects": len(sd.category.objects),
        "morphisms": len(sd.category.morphisms),
        "valid": not validate_action(action)
        and not validate_category(sd.category),
    }
    code = OK
    if args.diagram:
        F = _need(loaded.diagrams, args.diagram, "diagram")
        rep = verify_lan_formula(action, F)
        payload["lan_formula"] = {
            "ok": rep.ok,
            "natural_iso": rep.natural_iso,
            "components_indexed_by_group": rep.comma_components_indexed_by_group,
        }
        if not rep.ok:
            code = FALSIFIED
    _print(payload, args.pretty)
    return code if payload["valid"] else FALSIFIED
