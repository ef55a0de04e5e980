"""VCD waveform output. The header carries no timestamp (pinned for
byte-identical reruns); hierarchy follows the dotted flat names. Each
trace samples through one generated function that compares every
variable with its last value and adds a line for each change (IEEE
1800-2017 §21.7): a variable at most `TABLE_WIDTH` bits wide indexes a
table of its whole change lines, built when the trace starts, so the
lines a long run keeps share those strings; a wider one is formatted by
an f-string."""

from __future__ import annotations

from ..types import SInt, Vec, width_of
from .image import SimImage, mask_of

# the widest variable whose change lines are tabled: at most 2 ** 8 = 256
# strings per variable
TABLE_WIDTH = 8


def _id_of(n: int) -> str:
    chars = ""
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, 94)
        chars = chr(33 + rem) + chars
    return chars


class VcdTrace:
    """The waveform of one run. It takes no sample of its own, and
    `changes` stays empty until the first: the simulator takes that one
    (`Simulator.sample_trace`) when the run first advances time, after
    its time-0 `set`s, or at its end, and one per tick after that."""

    def __init__(self, image: SimImage) -> None:
        self.image = image
        self.vars: list[tuple[str, int, int, int, bool]] = []
        # (display name, value index, element index or -1, width, signed)
        for name in image.visible:
            entry = image.nets.get(name) or image.regs.get(name)
            ty = entry.ty
            if isinstance(ty, Vec):
                w = width_of(ty.elem)
                for i in range(ty.size):
                    self.vars.append((f"{name}[{i}]", entry.index, i, w,
                                      isinstance(ty.elem, SInt)))
            else:
                self.vars.append((name, entry.index, -1, width_of(ty),
                                  isinstance(ty, SInt)))
        self.refs = [_id_of(vi) for vi in range(len(self.vars))]
        self.changes: list[str] = []
        self.prev: list[int | None] = [None] * len(self.vars)
        self._sample = self._generate_sampler()

    def _generate_sampler(self):
        """`sample(time, v)` written out per variable: when the value
        differs from `prev[k]`, store it and add its change line."""
        lines = ["def sample(time, v):", "    out = []"]
        ns = {"prev": self.prev, "changes": self.changes}
        heads: dict[int, list[str]] = {}  # width -> change line up to the id, by value
        for k, (_name, idx, elem, width, _signed) in enumerate(self.vars):
            ref = self.refs[k]
            if width <= TABLE_WIDTH:
                if width not in heads:
                    heads[width] = ["0", "1"] if width == 1 else [
                        f"b{x:0{width}b} " for x in range(1 << width)]
                ns[f"t{k}"] = [head + ref for head in heads[width]]
                text = f"t{k}[x & {mask_of(width)}]"
            else:
                ref = ref.replace("{", "{{").replace("}", "}}")
                text = "f" + repr(f"b{{x & {mask_of(width)}:0{width}b}} {ref}")
            lines += [f"    x = v[{idx}]" + (f"[{elem}]" if elem >= 0 else ""),
                      f"    if x != prev[{k}]:",
                      f"        prev[{k}] = x",
                      f"        out.append({text})"]
        lines += ["    if out:", "        changes.append(f'#{time}')",
                  "        changes.extend(out)\n"]
        exec(compile("\n".join(lines), f"<archc vcd {self.image.top}>", "exec"), ns)
        return ns["sample"]

    def sample(self, time: int, values: list) -> None:
        self._sample(time, values)

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
