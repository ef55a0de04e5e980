"""A small CDCL SAT core in the manner of MiniSat (Eén & Sörensson, *An
Extensible SAT-solver*, SAT 2003): two watched literals per clause of
three or more literals, per-literal implication lists for binary clauses,
1UIP learning, VSIDS-style activities, geometric restarts, phase saving,
and incremental solving under assumptions. Clauses may be added between
`solve` calls, clauses learned in one call stay for the next, and the
propagation queue head survives too, so the level-0 trail is propagated
once, not once per call.

Literal encoding: positive ints are variables 1..n; literal = +v / -v.
`conflicts`, `decisions` and `propagations` (trail literals taken off the
propagation queue, as MiniSat counts them) are running totals over every
call.
"""

from __future__ import annotations

import heapq
import time


class SatSolver:
    def __init__(self) -> None:
        self.nvars = 0
        self.clauses: list[list[int]] = []   # binary ones too: a reason is an index here
        # a literal that became true -> the clauses of 3+ literals watching
        # its negation, and the (implied literal, clause index) of the binary
        # clauses containing its negation
        self.watches: dict[int, list[int]] = {}
        self.binary: dict[int, list[tuple[int, int]]] = {}
        self.assign: list[int] = [0]     # var -> 0 unassigned / +1 / -1
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]    # clause index
        self.phase: list[int] = [0]
        self.activity: list[float] = [0.0]
        # (-activity, var) heap of decision candidates. A var with `queued`
        # set has one live entry, keyed by its current activity; entries
        # with an older activity are skipped. Every unassigned var is queued.
        self.order: list[tuple[float, int]] = []
        self.queued: list[bool] = [False]
        self.seen: list[bool] = [False]  # marks for `_analyze`, all False between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self._qhead = 0                  # trail[:_qhead] is propagated
        self.var_inc = 1.0
        self.ok = True
        self.model: list[int] = []       # `assign` as it was at the last sat answer
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(-1)
        self.phase.append(-1)
        self.activity.append(0.0)
        self.queued.append(True)
        self.seen.append(False)
        heapq.heappush(self.order, (-0.0, self.nvars))
        return self.nvars

    def add_clause(self, lits: list[int]) -> None:
        if self.trail_lim:  # a previous answer left decisions on the trail
            self._backtrack(0)
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
        self._attach(out)

    def _attach(self, clause: list[int]) -> int:
        """Store a clause of two or more literals and watch its first two;
        returns its index (the reason its implications record)."""
        idx = len(self.clauses)
        self.clauses.append(clause)
        if len(clause) == 2:
            a, b = clause
            self.binary.setdefault(-a, []).append((b, idx))
            self.binary.setdefault(-b, []).append((a, idx))
        else:
            for lit in clause[:2]:
                self.watches.setdefault(-lit, []).append(idx)
        return idx

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
        """Returns conflicting clause index or -1. (The hot loop: values and
        enqueues are inlined.)"""
        trail, assign, clauses = self.trail, self.assign, self.clauses
        watches, binary = self.watches, self.binary
        level, reason, phase = self.level, self.reason, self.phase
        depth = len(self.trail_lim)
        qhead = self._qhead
        conflict = -1
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            implied = binary.get(lit)
            if implied:
                for other, ci in implied:
                    v, sign = (other, 1) if other > 0 else (-other, -1)
                    value = assign[v]
                    if value == 0:
                        assign[v] = phase[v] = sign
                        level[v] = depth
                        reason[v] = ci
                        trail.append(other)
                    elif value != sign:
                        conflict = ci
                        break
                if conflict >= 0:
                    break
            watchlist = watches.get(lit)
            if not watchlist:
                continue
            kept = []
            j = 0
            n = len(watchlist)
            while j < n:
                ci = watchlist[j]
                j += 1
                clause = clauses[ci]
                # ensure the false literal is at position 1
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value == 1:
                    kept.append(ci)
                    continue
                if len(clause) == 3:
                    other = clause[2]
                    if (assign[other] if other > 0 else -assign[-other]) != -1:
                        clause[1], clause[2] = other, clause[1]
                        watches.setdefault(-other, []).append(ci)
                        continue
                else:
                    for k in range(2, len(clause)):
                        other = clause[k]
                        if (assign[other] if other > 0 else -assign[-other]) != -1:
                            clause[1], clause[k] = other, clause[1]
                            watches.setdefault(-other, []).append(ci)
                            break
                    else:
                        k = 0  # no new watch: the clause is unit or conflicting
                    if k:
                        continue
                kept.append(ci)
                if value == -1:
                    kept.extend(watchlist[j:])
                    conflict = ci
                    break
                v, sign = (first, 1) if first > 0 else (-first, -1)
                assign[v] = phase[v] = sign
                level[v] = depth
                reason[v] = ci
                trail.append(first)
            watches[lit] = kept
            if conflict >= 0:
                break
        self.propagations += qhead - self._qhead
        self._qhead = qhead  # after a conflict, the backjump moves it back
        return conflict

    def _bump(self, v: int) -> None:
        act = self.activity[v] = self.activity[v] + self.var_inc
        if act > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        elif self.queued[v]:
            heapq.heappush(self.order, (-act, v))

    def _rebuild_order(self) -> None:
        assign = self.assign
        self.queued = [v > 0 and assign[v] == 0 for v in range(self.nvars + 1)]
        self.order = [(-self.activity[v], v) for v in range(1, self.nvars + 1)
                      if assign[v] == 0]
        heapq.heapify(self.order)

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis."""
        learnt = [0]
        seen = self.seen
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
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(l)] for l in learnt[1:])
        for i in range(1, len(learnt)):
            if self.level[abs(learnt[i])] == back:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, back

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        start = self.trail_lim[level]
        del self.trail_lim[level:]
        assign, queued, order, activity = self.assign, self.queued, self.order, self.activity
        for lit in self.trail[start:]:
            v = lit if lit > 0 else -lit
            assign[v] = 0
            if not queued[v]:
                queued[v] = True
                heapq.heappush(order, (-activity[v], v))
        del self.trail[start:]
        self._qhead = min(self._qhead, start)

    def _decide(self) -> int:
        """The unassigned var of highest activity (lowest index on ties),
        in its saved phase; 0 when every var is assigned."""
        if len(self.order) > 4 * self.nvars + 64:
            self._rebuild_order()
        order, assign, activity, queued = self.order, self.assign, self.activity, self.queued
        while order:
            neg, v = heapq.heappop(order)
            if -neg != activity[v]:
                continue  # outdated entry: the live one is still queued
            queued[v] = False
            if assign[v] == 0:
                return v if self.phase[v] >= 0 else -v
        return 0

    def solve(self, deadline: float | None = None,
              assumptions: tuple[int, ...] | list[int] = ()) -> str:
        """Returns 'sat', 'unsat' or 'timeout' (`time.monotonic()` passed
        `deadline`). `assumptions` are literals taken as the first
        decisions, in order; 'unsat' then means unsat under them, and a
        later call without them still sees only the clauses, which every
        learned clause is implied by."""
        self._backtrack(0)
        if not self.ok:
            return "unsat"
        restart_limit = 128
        since_restart = 0
        while True:
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
            ci = self._propagate()
            if ci >= 0:
                self.conflicts += 1
                since_restart += 1
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return "unsat"
                learnt, back = self._analyze(ci)
                self._backtrack(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        return "unsat"
                else:
                    self._enqueue(learnt[0], self._attach(learnt))
                self.var_inc *= 1.05
                if since_restart >= restart_limit:
                    since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                continue
            lit = 0
            while len(self.trail_lim) < len(assumptions):
                p = assumptions[len(self.trail_lim)]
                value = self._value(p)
                if value == -1:
                    return "unsat"
                if value == 0:
                    lit = p
                    break
                self.trail_lim.append(len(self.trail))  # already true: an empty level
            if lit == 0:
                lit = self._decide()
                if lit == 0:
                    self.model = self.assign[:]
                    return "sat"
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)

    def model_value(self, var: int) -> bool:
        """The variable's value at the last sat answer (False for a
        variable created since)."""
        return var < len(self.model) and self.model[var] == 1
