"""``smallcat validate``: load a catspec file and run all validators."""
from . import OK, _load, _print


def cmd_validate(args) -> int:
    loaded = _load(args.file)
    blocks = {f"{b.kind} {b.name}": "ok" for b in loaded.document.blocks}
    _print({"blocks": blocks, "ok": True}, args.pretty)
    return OK
