"""A small CDCL SAT core: watched literals, 1UIP learning, VSIDS-style
activities, geometric restarts, phase saving.

Literal encoding: positive ints are variables 1..n; literal = +v / -v.
"""

from __future__ import annotations

import time


class SatSolver:
    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.assign: list[int] = [0]     # var -> 0 unassigned / +1 / -1
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]    # clause index
        self.phase: list[int] = [0]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.var_inc = 1.0
        self.ok = True

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(-1)
        self.phase.append(-1)
        self.activity.append(0.0)
        return self.nvars

    def add_clause(self, lits: list[int]) -> None:
        if not self.ok:
            return
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            v = abs(lit)
            val = self.assign[v]
            if val != 0 and self.level[v] == 0:
                if val == (1 if lit > 0 else -1):
                    return  # satisfied at root
                continue    # falsified at root: drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], -1):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(out)
        for lit in out[:2]:
            self.watches.setdefault(-lit, []).append(idx)

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = abs(lit)
        val = 1 if lit > 0 else -1
        if self.assign[v] != 0:
            return self.assign[v] == val
        self.assign[v] = val
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = val
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Returns conflicting clause index or -1."""
        qhead = self._qhead
        while qhead < len(self.trail):
            lit = self.trail[qhead]
            qhead += 1
            watchlist = self.watches.get(lit)
            if not watchlist:
                continue
            kept = []
            j = 0
            while j < len(watchlist):
                ci = watchlist[j]
                j += 1
                clause = self.clauses[ci]
                # ensure the false literal is at position 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._value(first) == -1:
                    kept.extend(watchlist[j:])
                    self.watches[lit] = kept
                    self._qhead = len(self.trail)
                    return ci
                self._enqueue(first, ci)
            self.watches[lit] = kept
        self._qhead = qhead
        return -1

    _qhead = 0

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis."""
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        p_lit = 0  # 0 = start with the whole conflict clause
        idx = len(self.trail) - 1
        ci = conflict
        cur_level = len(self.trail_lim)
        while True:
            for lit in self.clauses[ci]:
                if lit == p_lit:
                    continue
                v = abs(lit)
                if seen[v] or self.level[v] == 0:
                    continue
                seen[v] = True
                self._bump(v)
                if self.level[v] >= cur_level:
                    counter += 1
                else:
                    learnt.append(lit)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p_lit = self.trail[idx]
            idx -= 1
            seen[abs(p_lit)] = False
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[abs(p_lit)]
        learnt[0] = -p_lit
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(l)] for l in learnt[1:])
        for i in range(1, len(learnt)):
            if self.level[abs(learnt[i])] == back:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, back

    def _backtrack(self, level: int) -> None:
        while len(self.trail_lim) > level:
            start = self.trail_lim.pop()
            for lit in self.trail[start:]:
                self.assign[abs(lit)] = 0
            del self.trail[start:]
        self._qhead = min(self._qhead, len(self.trail))

    def _decide(self) -> int:
        best, best_act = 0, -1.0
        for v in range(1, self.nvars + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        if best == 0:
            return 0
        return best if self.phase[best] >= 0 else -best

    def solve(self, max_conflicts: int | None = None,
              deadline: float | None = None) -> str:
        """Returns 'sat', 'unsat', 'unknown' (conflict budget hit), or
        'timeout' (`time.monotonic()` passed `deadline`)."""
        if not self.ok:
            return "unsat"
        self._qhead = 0
        conflicts = 0
        restart_limit = 128
        since_restart = 0
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
            ci = self._propagate()
            if ci >= 0:
                conflicts += 1
                since_restart += 1
                if max_conflicts is not None and conflicts > max_conflicts:
                    return "unknown"
                if len(self.trail_lim) == 0:
                    return "unsat"
                learnt, back = self._analyze(ci)
                self._backtrack(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        return "unsat"
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    for lit in learnt[:2]:
                        self.watches.setdefault(-lit, []).append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc *= 1.05
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                continue
            lit = self._decide()
            if lit == 0:
                return "sat"
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)

    def model_value(self, var: int) -> bool:
        return self.assign[var] == 1
