"""VCD waveform output. The header carries no timestamp (pinned for
byte-identical reruns); hierarchy follows the dotted flat names."""

from __future__ import annotations

from ..types import SInt, Vec
from .image import SimImage, mask_of, type_width


def _id_of(n: int) -> str:
    chars = ""
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, 94)
        chars = chr(33 + rem) + chars
    return chars


class VcdTrace:
    def __init__(self, image: SimImage, values: list) -> None:
        self.image = image
        self.vars: list[tuple[str, int, int, int, bool]] = []
        # (display name, value index, element index or -1, width, signed)
        for name in image.visible:
            entry = image.nets.get(name) or image.regs.get(name)
            ty = entry.ty
            if isinstance(ty, Vec):
                w = type_width(ty.elem)
                for i in range(ty.size):
                    self.vars.append((f"{name}[{i}]", entry.index, i, w,
                                      isinstance(ty.elem, SInt)))
            else:
                self.vars.append((name, entry.index, -1, type_width(ty),
                                  isinstance(ty, SInt)))
        self.refs = [_id_of(vi) for vi in range(len(self.vars))]
        # per variable: (value index, element index or -1, mask, the
        # format of its change line)
        self.probes = []
        for (_name, idx, elem, width, _signed), ref in zip(self.vars, self.refs):
            ref = ref.replace("{", "{{").replace("}", "}}")
            line = "{}" + ref if width == 1 else "b{:0%db} %s" % (width, ref)
            self.probes.append((idx, elem, mask_of(width), line))
        self.changes: list[str] = []
        self.prev: list[int | None] = [None] * len(self.vars)
        self.sample(0, values)

    def sample(self, time: int, values: list) -> None:
        out: list[str] = []
        prev = self.prev
        for vi, (idx, elem, mask, line) in enumerate(self.probes):
            v = values[idx]
            if elem >= 0:
                v = v[elem]
            if prev[vi] == v:
                continue
            prev[vi] = v
            out.append(line.format(v & mask))
        if out:
            self.changes.append(f"#{time}")
            self.changes.extend(out)

    def write(self, path: str) -> None:
        lines = [
            "$date archc deterministic build $end",
            "$version archc $end",
            "$timescale 1ns $end",
        ]
        # hierarchical scopes from dotted names
        lines.append(f"$scope module {self.image.top} $end")
        open_scope: list[str] = []

        def set_scope(path_parts: list[str]) -> None:
            nonlocal open_scope
            common = 0
            while (common < len(open_scope) and common < len(path_parts)
                   and open_scope[common] == path_parts[common]):
                common += 1
            for _ in range(len(open_scope) - common):
                lines.append("$upscope $end")
                open_scope.pop()
            for part in path_parts[common:]:
                lines.append(f"$scope module {part} $end")
                open_scope.append(part)

        for vi, (name, _idx, _elem, width, _signed) in enumerate(self.vars):
            parts = name.split(".")
            scope, leaf = parts[:-1], parts[-1]
            set_scope(scope)
            ref = self.refs[vi]
            suffix = "" if width == 1 else f" [{width - 1}:0]"
            lines.append(f"$var wire {width} {ref} {leaf}{suffix} $end")
        set_scope([])
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        lines.extend(self.changes)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
