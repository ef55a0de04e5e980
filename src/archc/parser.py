"""Recursive-descent parser for Arch.

Strictly one token of lookahead: every decision point inspects only the
current unconsumed token (the fused `end <kw>` closer tokens are what make
this possible, see tokens.py). There is no backtracking; the first
offending token raises immediately with its exact span.
"""

from __future__ import annotations

from itertools import chain, islice, repeat

from .ast_nodes import (
    AssertDecl, Binary, BoolLit, CombBlock, Connection, Construct, Convert,
    CoverDecl, DefaultBlock, DefaultStateDecl, EnumDecl, EnumRef, Expr,
    FlushDecl, GenerateFor, GenerateIf, IfExpr, Index, InstDecl, IntLit, Item,
    KindDecl, LetDecl, MatchCase, MemberRef, NameRef, ParamDecl, PortDecl,
    RegDecl, SAssign, SIf, SMatch, SeqBlock, Slice, SourceUnit, StageDecl,
    StallDecl, StateDecl, Stmt, TBit, TBool, TClock, TNamed, TReset, TSInt,
    TUInt, TVec, Ternary, TodoExpr, Transition, TypeExpr, Unary,
)
from .diagnostics import CompileError, Note, err
from .lexer import lex
from .source import SourceFile, Span
from .tokens import CONSTRUCT_KEYWORDS, TK, Token

_END_TOKENS = {
    TK.END_MODULE: "module", TK.END_FSM: "fsm", TK.END_FIFO: "fifo",
    TK.END_COUNTER: "counter", TK.END_SYNCHRONIZER: "synchronizer",
    TK.END_PIPELINE: "pipeline", TK.END_COMB: "comb", TK.END_SEQ: "seq",
    TK.END_INST: "inst", TK.END_IF: "if", TK.END_MATCH: "match",
    TK.END_GENERATE_FOR: "generate_for", TK.END_GENERATE_IF: "generate_if",
    TK.END_STAGE: "stage", TK.END_STATE: "state", TK.END_DEFAULT: "default",
    TK.END_ENUM: "enum",
}

_CONSTRUCT_END = {
    "module": TK.END_MODULE, "fsm": TK.END_FSM, "fifo": TK.END_FIFO,
    "counter": TK.END_COUNTER, "synchronizer": TK.END_SYNCHRONIZER,
    "pipeline": TK.END_PIPELINE,
}

# binary precedence levels, loosest first; each entry is left-associative
_BIN_LEVELS: list[dict[TK, str]] = [
    {TK.PIPEPIPE: "||"},
    {TK.AMPAMP: "&&"},
    {TK.PIPE: "|", TK.CARET: "^", TK.AMP: "&"},
    {TK.EQ: "==", TK.NE: "!="},
    {TK.LT: "<", TK.LE: "<=", TK.GT: ">", TK.GE: ">="},
    {TK.SHL: "<<", TK.SHR: ">>"},
    {TK.PLUS: "+", TK.MINUS: "-", TK.PLUS_WRAP: "+%", TK.MINUS_WRAP: "-%"},
    {TK.STAR: "*", TK.SLASH: "/", TK.PERCENT: "%", TK.STAR_WRAP: "*%"},
]
_RELATIONAL_LEVEL = 4
_IMPLIES_LEVEL = -1  # right-associative, looser than every level above
_BIN_OPS: dict[TK, tuple[int, str]] = {
    tk: (level, op) for level, ops in enumerate(_BIN_LEVELS) for tk, op in ops.items()}
_BIN_OPS[TK.KW_IMPLIES] = (_IMPLIES_LEVEL, "implies")
_UNARY_OPS = (TK.TILDE, TK.BANG, TK.MINUS)

# An expression nested deeper than this is refused with E_TOO_DEEP. Each
# operator, conversion, index, slice, member access, if-expression and
# pair of parentheses is one level. The passes after parsing recurse once
# or a few times per level, and survive about three times this depth.
MAX_EXPR_DEPTH = 100


class Parser:
    def __init__(self, src: SourceFile, tokens: list[Token]) -> None:
        self.src = src
        self.cur = tokens[0]  # the current token; it stays on the last one
        self._next = chain(islice(tokens, 1, None), repeat(tokens[-1])).__next__
        self._pending_docs: list[str] = []
        self._open = 0  # expression levels being parsed (see _parse_ternary)
        self._nested = 0  # if/match statements being parsed

    # ── token access (current token only: LL(1)) ────────────────

    def advance(self) -> Token:
        tok = self.cur
        self.cur = self._next()
        return tok

    def at(self, kind: TK) -> bool:
        return self.cur.kind is kind

    def expect(self, kind: TK, what: str | None = None) -> Token:
        tok = self.cur
        if tok.kind is kind:
            self.cur = self._next()
            return tok
        self.fail(what or f"`{kind.value}`")

    def fail(self, expected: str) -> None:
        tok = self.cur
        found = "end of file" if tok.kind is TK.EOF else f"`{tok.text}`"
        raise CompileError(err("E_PARSE", f"expected {expected}, found {found}", tok.span))

    def ident(self, what: str = "identifier") -> Token:
        return self.expect(TK.IDENT, what)

    def _take_docs(self) -> list[str]:
        docs, self._pending_docs = self._pending_docs, []
        return docs

    def _skip_docs(self) -> None:
        while self.at(TK.DOC_COMMENT):
            self._pending_docs.append(self.advance().text)

    # ── top level ────────────────────────────────────────────────

    def parse_unit(self) -> SourceUnit:
        constructs = []
        self._skip_docs()
        while not self.at(TK.EOF):
            constructs.append(self.parse_construct())
            self._skip_docs()
        return SourceUnit(self.src.name, constructs)

    def parse_construct(self) -> Construct:
        docs = self._take_docs()
        tok = self.cur
        kind = CONSTRUCT_KEYWORDS.get(tok.kind)
        if kind is None:
            self.fail("a top-level construct (module, fsm, fifo, counter, synchronizer, pipeline)")
        self.advance()
        name_tok = self.ident(f"{kind} name")
        items = self.parse_items(stop=_CONSTRUCT_END[kind], opener_kind=kind,
                                 opener_name=name_tok.text, opener_span=tok.span,
                                 construct_kind=kind)
        end_tok = self.advance()  # the fused END_<kind> token
        end_name_tok = self.ident("closing name")
        node = Construct(kind, name_tok.text, items, _END_TOKENS[end_tok.kind],
                         end_name_tok.text, tok.span.merge(end_name_tok.span))
        node.docs = docs
        if end_name_tok.text != name_tok.text:
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`{kind} {name_tok.text}` closed by `end {kind} {end_name_tok.text}`",
                end_name_tok.span,
                notes=[Note("opened here", name_tok.span)]))
        return node

    def _end_mismatch(self, opener_kind: str, opener_name: str, opener_span: Span) -> None:
        tok = self.cur
        raise CompileError(err(
            "E_END_MISMATCH",
            f"`{opener_kind} {opener_name}` closed by `{tok.text}`",
            tok.span,
            notes=[Note("opened here", opener_span)]))

    # ── items ────────────────────────────────────────────────────

    def parse_items(self, stop: TK, opener_kind: str, opener_name: str,
                    opener_span: Span, construct_kind: str) -> list[Item]:
        items: list[Item] = []
        while True:
            self._skip_docs()
            if self.at(stop):
                return items
            if self.cur.kind in _END_TOKENS or self.at(TK.EOF) or self.at(TK.KW_END):
                self._end_mismatch(opener_kind, opener_name, opener_span)
            item = self.parse_item(construct_kind)
            if item is not None:
                items.append(item)

    def parse_item(self, construct_kind: str) -> Item | None:
        docs = self._take_docs()
        handler = _ITEM_PARSERS.get(self.cur.kind)
        if handler is None:
            self.fail("an item declaration")
        item = handler(self, construct_kind)
        item.docs = docs
        return item

    def _parse_param(self, _ck: str) -> ParamDecl:
        start = self.advance().span
        name = self.ident("param name")
        self.expect(TK.COLON)
        if self.at(TK.KW_CONST):
            self.advance()
            eq = self.expect(TK.ASSIGN)
            value = self.parse_expr()
            semi = self.expect(TK.SEMI)
            text = self.src.text[eq.span.end:semi.span.start].strip()
            return ParamDecl(start.merge(semi.span), name.text, "const", value, text)
        if self.at(TK.KW_TYPE):
            self.advance()
            eq = self.expect(TK.ASSIGN)
            ty = self.parse_type()
            semi = self.expect(TK.SEMI)
            text = self.src.text[eq.span.end:semi.span.start].strip()
            return ParamDecl(start.merge(semi.span), name.text, "type", ty, text)
        self.fail("`const` or `type`")

    def _parse_port(self, _ck: str) -> PortDecl:
        start = self.advance().span
        name = self.ident("port name")
        index = None
        if self.at(TK.LBRACKET):
            self.advance()
            index = self.parse_expr()
            self.expect(TK.RBRACKET)
        self.expect(TK.COLON)
        if self.at(TK.KW_IN):
            direction = "in"
        elif self.at(TK.KW_OUT):
            direction = "out"
        else:
            self.fail("`in` or `out`")
        self.advance()
        ty = self.parse_type()
        semi = self.expect(TK.SEMI)
        return PortDecl(start.merge(semi.span), name.text, direction, ty, index)

    def _parse_reg(self, _ck: str) -> RegDecl:
        start = self.advance().span
        name = self.ident("reg name")
        index = None
        if self.at(TK.LBRACKET):
            self.advance()
            index = self.parse_expr()
            self.expect(TK.RBRACKET)
        self.expect(TK.COLON)
        ty = self.parse_type()
        if self.at(TK.KW_RESET):
            self.advance()
            if self.at(TK.KW_NONE):
                self.advance()
                semi = self.expect(TK.SEMI)
                return RegDecl(start.merge(semi.span), name.text, ty, index,
                               reset_none=True)
            sig = self.ident("reset signal")
            self.expect(TK.FAT_ARROW)
            value = self.parse_expr()
            semi = self.expect(TK.SEMI)
            return RegDecl(start.merge(semi.span), name.text, ty, index,
                           reset_sig=sig.text, reset_value=value)
        if self.at(TK.KW_GUARD):
            self.advance()
            sig = self.ident("guard signal")
            semi = self.expect(TK.SEMI)
            return RegDecl(start.merge(semi.span), name.text, ty, index,
                           guard_sig=sig.text)
        self.fail("`reset` or `guard` (every reg declares a reset policy)")

    def _parse_let(self, _ck: str) -> LetDecl:
        start = self.advance().span
        name = self.ident("let name")
        index = None
        if self.at(TK.LBRACKET):
            self.advance()
            index = self.parse_expr()
            self.expect(TK.RBRACKET)
        ty = None
        if self.at(TK.COLON):
            self.advance()
            ty = self.parse_type()
        self.expect(TK.ASSIGN)
        value = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return LetDecl(start.merge(semi.span), name.text, ty, index, value)

    def _parse_comb(self, _ck: str) -> CombBlock:
        start = self.advance().span
        # single-assignment shorthand (`comb y = expr;`) and the block form
        # share their first tokens; the fused END_COMB token resolves them
        # with one token of lookahead after the first statement.
        if self.at(TK.IDENT):
            assign = self._parse_assign("=")
            if self.at(TK.END_COMB):
                end = self.advance()
                return CombBlock(start.merge(end.span), [assign])
            if self.at(TK.IDENT) or self.at(TK.KW_IF) or self.at(TK.KW_MATCH):
                stmts = [assign] + self._parse_stmts("=")
                end = self.expect(TK.END_COMB)
                return CombBlock(start.merge(end.span), stmts)
            return CombBlock(start.merge(assign.span), [assign])  # shorthand
        stmts = self._parse_stmts("=")
        end = self.expect(TK.END_COMB)
        return CombBlock(start.merge(end.span), stmts)

    def _parse_seq(self, _ck: str) -> SeqBlock:
        start = self.advance().span
        self.expect(TK.KW_ON)
        clk = self.ident("clock name")
        if self.at(TK.KW_RISING):
            edge = "rising"
        elif self.at(TK.KW_FALLING):
            edge = "falling"
        else:
            self.fail("`rising` or `falling`")
        self.advance()
        stmts = self._parse_stmts("<=")
        end = self.expect(TK.END_SEQ)
        return SeqBlock(start.merge(end.span), clk.text, edge, stmts)

    def _parse_inst(self, _ck: str) -> InstDecl:
        start = self.advance().span
        name = self.ident("instance name")
        index = None
        if self.at(TK.LBRACKET):
            self.advance()
            index = self.parse_expr()
            self.expect(TK.RBRACKET)
        self.expect(TK.COLON)
        module = self.ident("module name")
        overrides: list[tuple[str, Expr]] = []
        connections: list[Connection] = []
        while True:
            if self.at(TK.KW_PARAM):
                self.advance()
                pname = self.ident("param name")
                if self.at(TK.COLON):  # type-valued override: `param T: type = UInt<64>;`
                    self.advance()
                    self.expect(TK.KW_TYPE)
                    self.expect(TK.ASSIGN)
                    tvalue = self.parse_type()
                    self.expect(TK.SEMI)
                    overrides.append((pname.text, tvalue))
                    continue
                self.expect(TK.ASSIGN)
                value = self.parse_expr()
                self.expect(TK.SEMI)
                overrides.append((pname.text, value))
            elif self.at(TK.IDENT):
                port = self.advance()
                if self.at(TK.ARROW_L):
                    self.advance()
                    expr = self.parse_expr(allow_if_expr=True)
                    semi = self.expect(TK.SEMI)
                    connections.append(Connection(port.text, "<-", expr, port.span.merge(semi.span)))
                elif self.at(TK.ARROW_R):
                    self.advance()
                    target = self._parse_lvalue()
                    semi = self.expect(TK.SEMI)
                    connections.append(Connection(port.text, "->", target, port.span.merge(semi.span)))
                else:
                    self.fail("`<-` or `->`")
            elif self.at(TK.END_INST):
                break
            else:
                self.fail("a connection (`port <- expr;` / `port -> net;`), `param`, or `end inst`")
        self.expect(TK.END_INST)
        end_name = self.ident("closing instance name")
        end_display = end_name.text
        end_index = None
        if self.at(TK.LBRACKET):
            self.advance()
            end_index = self.parse_expr()
            self.expect(TK.RBRACKET)
            end_display = f"{end_name.text}[...]"
        semi_span = end_name.span
        node = InstDecl(start.merge(semi_span), name.text, index, module.text,
                        overrides, connections, end_display)
        if end_name.text != name.text or (index is None) != (end_index is None) or \
           (index is not None and end_index != index):
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`inst {name.text}` closed by `end inst {end_display}`",
                end_name.span, notes=[Note("opened here", name.span)]))
        return node

    def _parse_assert(self, _ck: str) -> AssertDecl:
        start = self.advance().span
        name = self.ident("assert name")
        self.expect(TK.COLON)
        expr = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return AssertDecl(start.merge(semi.span), name.text, expr)

    def _parse_cover(self, _ck: str) -> CoverDecl:
        start = self.advance().span
        name = self.ident("cover name")
        self.expect(TK.COLON)
        expr = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return CoverDecl(start.merge(semi.span), name.text, expr)

    def _parse_generate_for(self, ck: str) -> GenerateFor:
        tok = self.advance()
        var = self.ident("loop variable")
        self.expect(TK.KW_IN)
        lo = self.parse_expr(type_arg=True)  # `..` terminated; relational needs parens
        self.expect(TK.DOTDOT)
        hi = self.parse_expr(allow_if_expr=False)
        items = self.parse_items(stop=TK.END_GENERATE_FOR, opener_kind="generate_for",
                                 opener_name=var.text, opener_span=tok.span,
                                 construct_kind=ck)
        end = self.expect(TK.END_GENERATE_FOR)
        return GenerateFor(tok.span.merge(end.span), var.text, lo, hi, items)

    def _parse_generate_if(self, ck: str) -> GenerateIf:
        tok = self.advance()
        cond = self.parse_expr()
        then_items: list[Item] = []
        else_items: list[Item] | None = None
        while True:
            self._skip_docs()
            if self.at(TK.END_GENERATE_IF):
                break
            if self.at(TK.KW_ELSE):
                self.advance()
                else_items = self.parse_items(stop=TK.END_GENERATE_IF,
                                              opener_kind="generate_if", opener_name="",
                                              opener_span=tok.span, construct_kind=ck)
                break
            if self.cur.kind in _END_TOKENS or self.at(TK.EOF):
                self._end_mismatch("generate_if", "", tok.span)
            item = self.parse_item(ck)
            if item is not None:
                then_items.append(item)
        end = self.expect(TK.END_GENERATE_IF)
        return GenerateIf(tok.span.merge(end.span), cond, then_items, else_items)

    def _parse_enum(self, _ck: str) -> EnumDecl:
        tok = self.advance()
        name = self.ident("enum name")
        variants: list[str] = []
        while self.at(TK.KW_VARIANT):
            self.advance()
            variants.append(self.ident("variant name").text)
            self.expect(TK.SEMI)
        self.expect(TK.END_ENUM)
        end_name = self.ident("closing enum name")
        if end_name.text != name.text:
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`enum {name.text}` closed by `end enum {end_name.text}`",
                end_name.span, notes=[Note("opened here", name.span)]))
        return EnumDecl(tok.span.merge(end_name.span), name.text, variants, end_name.text)

    def _parse_kind(self, _ck: str) -> KindDecl:
        tok = self.advance()
        if self.at(TK.IDENT) or self.at(TK.KW_FIFO):
            value = self.advance()
        else:
            self.fail("a kind name")
        semi = self.expect(TK.SEMI)
        return KindDecl(tok.span.merge(semi.span), value.text)

    def _parse_state(self, _ck: str) -> StateDecl:
        tok = self.advance()
        name = self.ident("state name")
        overrides: list[LetDecl] = []
        transitions: list[Transition] = []
        while True:
            if self.at(TK.KW_LET):
                overrides.append(self._parse_let(_ck))
            elif self.at(TK.ARROW_R):
                arr = self.advance()
                target = self.ident("target state")
                cond = None
                if self.at(TK.KW_WHEN):
                    self.advance()
                    cond = self.parse_expr()
                semi = self.expect(TK.SEMI)
                transitions.append(Transition(target.text, cond, arr.span.merge(semi.span)))
            elif self.at(TK.END_STATE):
                break
            else:
                self.fail("`let`, `->`, or `end state`")
        self.expect(TK.END_STATE)
        end_name = self.ident("closing state name")
        if end_name.text != name.text:
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`state {name.text}` closed by `end state {end_name.text}`",
                end_name.span, notes=[Note("opened here", name.span)]))
        return StateDecl(tok.span.merge(end_name.span), name.text, overrides,
                         transitions, end_name.text)

    def _parse_default(self, ck: str) -> Item:
        tok = self.advance()
        if self.at(TK.KW_STATE):
            self.advance()
            name = self.ident("state name")
            semi = self.expect(TK.SEMI)
            return DefaultStateDecl(tok.span.merge(semi.span), name.text)
        items: list[Item] = []
        while not self.at(TK.END_DEFAULT):
            if self.at(TK.KW_COMB):
                items.append(self._parse_comb(ck))
            elif self.at(TK.KW_LET):
                items.append(self._parse_let(ck))
            else:
                self.fail("`comb`, `let`, or `end default`")
        end = self.expect(TK.END_DEFAULT)
        return DefaultBlock(tok.span.merge(end.span), items)

    def _parse_stage(self, ck: str) -> StageDecl:
        tok = self.advance()
        name = self.ident("stage name")
        items = self.parse_items(stop=TK.END_STAGE, opener_kind="stage",
                                 opener_name=name.text, opener_span=tok.span,
                                 construct_kind=ck)
        self.expect(TK.END_STAGE)
        end_name = self.ident("closing stage name")
        if end_name.text != name.text:
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`stage {name.text}` closed by `end stage {end_name.text}`",
                end_name.span, notes=[Note("opened here", name.span)]))
        return StageDecl(tok.span.merge(end_name.span), name.text, items, end_name.text)

    def _parse_stall(self, _ck: str) -> StallDecl:
        tok = self.advance()
        self.expect(TK.KW_WHEN)
        cond = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return StallDecl(tok.span.merge(semi.span), cond)

    def _parse_flush(self, _ck: str) -> FlushDecl:
        tok = self.advance()
        stage = self.ident("stage name")
        self.expect(TK.KW_WHEN)
        cond = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return FlushDecl(tok.span.merge(semi.span), stage.text, cond)

    # ── statements ──────────────────────────────────────────────

    def _parse_stmts(self, assign_op: str) -> list[Stmt]:
        stmts: list[Stmt] = []
        while self.at(TK.IDENT) or self.at(TK.KW_IF) or self.at(TK.KW_MATCH):
            stmts.append(self._parse_stmt(assign_op))
        return stmts

    def _parse_stmt(self, assign_op: str) -> Stmt:
        if not (self.at(TK.KW_IF) or self.at(TK.KW_MATCH)):
            return self._parse_assign(assign_op)
        # each nested if/match becomes one more mux level around its targets
        self._nested += 1
        if self._nested > MAX_EXPR_DEPTH:
            raise CompileError(err(
                "E_TOO_DEEP", f"statements nested more than {MAX_EXPR_DEPTH} levels deep",
                self.cur.span, help="split it into `let` bindings or separate blocks"))
        stmt = self._parse_branch(assign_op)
        self._nested -= 1
        return stmt

    def _parse_branch(self, assign_op: str) -> Stmt:
        if self.at(TK.KW_IF):
            tok = self.advance()
            cond = self.parse_expr()
            self.expect(TK.KW_THEN)
            then = self._parse_stmts(assign_op)
            els = None
            if self.at(TK.KW_ELSE):
                self.advance()
                els = self._parse_stmts(assign_op)
            end = self.expect(TK.END_IF)
            return SIf(tok.span.merge(end.span), cond, then, els)
        tok = self.advance()  # match
        subject = self.parse_expr()
        cases: list[MatchCase] = []
        else_stmts = None
        while self.at(TK.KW_CASE):
            self.advance()
            if self.at(TK.KW_ELSE):
                self.advance()
                self.expect(TK.COLON)
                else_stmts = self._parse_stmts(assign_op)
                break
            pattern = self.parse_expr()
            self.expect(TK.COLON)
            stmts = self._parse_stmts(assign_op)
            cases.append(MatchCase([pattern], stmts))
        end = self.expect(TK.END_MATCH)
        return SMatch(tok.span.merge(end.span), subject, cases, else_stmts)

    def _parse_assign(self, assign_op: str) -> SAssign:
        lhs = self._parse_lvalue()
        if assign_op == "=":
            op_tok = self.expect(TK.ASSIGN, "`=` (combinational assignment)")
        else:
            op_tok = self.expect(TK.LE, "`<=` (sequential assignment)")
        rhs = self.parse_expr()
        semi = self.expect(TK.SEMI)
        return SAssign(lhs.span.merge(semi.span), lhs, rhs, assign_op)

    def _parse_lvalue(self) -> Expr:
        name = self.ident("a signal name")
        node: Expr = NameRef(name.span, name.text)
        if self.at(TK.LBRACKET):
            self.advance()
            index = self.parse_expr()
            rb = self.expect(TK.RBRACKET)
            node = Index(name.span.merge(rb.span), node, index)
        return node

    # ── types ───────────────────────────────────────────────────

    def parse_type(self) -> TypeExpr:
        name = self.ident("a type")
        span = name.span
        text = name.text
        if text == "Bit":
            return TBit(span)
        if text == "Bool":
            return TBool(span)
        if text in ("UInt", "SInt"):
            self.expect(TK.LT)
            width = self.parse_expr(type_arg=True)
            end = self.expect(TK.GT)
            cls = TUInt if text == "UInt" else TSInt
            return cls(span.merge(end.span), width)
        if text == "Clock":
            self.expect(TK.LT)
            dom = self.ident("clock domain name")
            end = self.expect(TK.GT)
            return TClock(span.merge(end.span), dom.text)
        if text == "Reset":
            self.expect(TK.LT)
            sync = self.ident("`Sync` or `Async`")
            if sync.text not in ("Sync", "Async"):
                raise CompileError(err("E_PARSE", f"expected `Sync` or `Async`, found `{sync.text}`", sync.span))
            polarity, domain = "High", None
            if self.at(TK.COMMA):
                self.advance()
                pol = self.ident("`High` or `Low`")
                if pol.text not in ("High", "Low"):
                    raise CompileError(err("E_PARSE", f"expected `High` or `Low`, found `{pol.text}`", pol.span))
                polarity = pol.text
                if self.at(TK.COMMA):
                    self.advance()
                    domain = self.ident("reset domain name").text
            end = self.expect(TK.GT)
            return TReset(span.merge(end.span), sync.text, polarity, domain)
        if text == "Vec":
            self.expect(TK.LT)
            elem = self.parse_type()
            self.expect(TK.COMMA)
            size = self.parse_expr(type_arg=True)
            end = self.expect(TK.GT)
            return TVec(span.merge(end.span), elem, size)
        return TNamed(span, text)

    # ── expressions ─────────────────────────────────────────────

    def parse_expr(self, *, allow_if_expr: bool = False, type_arg: bool = False) -> Expr:
        return self._parse_ternary(allow_if_expr, type_arg)[0]

    # The expression parsers below return (node, depth). Binary operators
    # and prefix operators are parsed in loops, so the parser recurses only
    # once per parenthesis, index, slice, conversion width, if-expression
    # or ternary branch; `_open` counts those open levels.

    def _too_deep(self, span: Span) -> CompileError:
        return CompileError(err(
            "E_TOO_DEEP", f"expression nested more than {MAX_EXPR_DEPTH} levels deep", span,
            help="split it into `let` bindings"))

    def _checked(self, node: Expr, depth: int) -> tuple[Expr, int]:
        if depth > MAX_EXPR_DEPTH:
            raise self._too_deep(node.span)
        return node, depth

    def _parse_ternary(self, if_ok: bool, targ: bool) -> tuple[Expr, int]:
        self._open += 1
        if self._open > MAX_EXPR_DEPTH:
            raise self._too_deep(self.cur.span)
        cond, depth = self._parse_binary(if_ok, targ)
        if self.at(TK.QUESTION):
            self.advance()
            then, d1 = self._parse_ternary(if_ok, targ)
            self.expect(TK.COLON)
            els, d2 = self._parse_ternary(if_ok, targ)
            cond, depth = self._checked(Ternary(cond.span.merge(els.span), cond, then, els),
                                        1 + max(depth, d1, d2))
        self._open -= 1
        return cond, depth

    def _parse_binary(self, if_ok: bool, targ: bool) -> tuple[Expr, int]:
        """Operator precedence over _BIN_LEVELS, with right-associative
        `implies` below them all, on an explicit operand stack."""
        operands = [self._parse_unary(if_ok, targ)]
        pending: list[tuple[int, str]] = []  # (level, op), levels increasing
        while True:
            entry = _BIN_OPS.get(self.cur.kind)
            if entry is None or (targ and entry[0] == _RELATIONAL_LEVEL):
                # inside type arguments `>` closes the argument list;
                # relational comparison must be parenthesized there
                break
            self.advance()
            level = entry[0]
            while pending and (pending[-1][0] > level
                               or pending[-1][0] == level != _IMPLIES_LEVEL):
                self._reduce(operands, pending.pop()[1])
            pending.append(entry)
            operands.append(self._parse_unary(if_ok, targ))
        while pending:
            self._reduce(operands, pending.pop()[1])
        return operands[0]

    def _reduce(self, operands: list[tuple[Expr, int]], op: str) -> None:
        rhs, d2 = operands.pop()
        lhs, d1 = operands.pop()
        operands.append(self._checked(Binary(lhs.span.merge(rhs.span), op, lhs, rhs),
                                      1 + max(d1, d2)))

    def _parse_unary(self, if_ok: bool, targ: bool) -> tuple[Expr, int]:
        prefix = []
        while self.cur.kind in _UNARY_OPS:
            prefix.append(self.advance())
        node, depth = self._parse_postfix(if_ok, targ)
        for tok in reversed(prefix):
            node, depth = self._checked(Unary(tok.span.merge(node.span), tok.text, node), depth + 1)
        return node, depth

    def _parse_postfix(self, if_ok: bool, targ: bool) -> tuple[Expr, int]:
        node, depth = self._parse_atom(if_ok, targ)
        while True:
            if self.at(TK.DOT):
                self.advance()
                if self.cur.kind in (TK.KW_ZEXT, TK.KW_SEXT, TK.KW_TRUNC):
                    kind_tok = self.advance()
                    self.expect(TK.LT)
                    width, d1 = self._parse_ternary(False, True)
                    self.expect(TK.GT)
                    self.expect(TK.LPAREN)
                    rp = self.expect(TK.RPAREN)
                    node, depth = self._checked(
                        Convert(node.span.merge(rp.span), kind_tok.text, node, width),
                        1 + max(depth, d1))
                else:
                    member = self.ident("member name")
                    node, depth = self._checked(
                        MemberRef(node.span.merge(member.span), node, member.text), depth + 1)
            elif self.at(TK.LBRACKET):
                self.advance()
                first, d1 = self._parse_ternary(False, False)
                if self.at(TK.COLON):
                    self.advance()
                    lo, d2 = self._parse_ternary(False, False)
                    rb = self.expect(TK.RBRACKET)
                    node, depth = self._checked(Slice(node.span.merge(rb.span), node, first, lo),
                                                1 + max(depth, d1, d2))
                else:
                    rb = self.expect(TK.RBRACKET)
                    node, depth = self._checked(Index(node.span.merge(rb.span), node, first),
                                                1 + max(depth, d1))
            else:
                return node, depth

    def _parse_atom(self, if_ok: bool, targ: bool) -> tuple[Expr, int]:
        tok = self.cur
        if tok.kind is TK.INT:
            self.advance()
            return IntLit(tok.span, tok.value or 0, tok.text), 1
        if tok.kind is TK.KW_TRUE:
            self.advance()
            return BoolLit(tok.span, True), 1
        if tok.kind is TK.KW_FALSE:
            self.advance()
            return BoolLit(tok.span, False), 1
        if tok.kind is TK.TODO_BANG:
            self.advance()
            return TodoExpr(tok.span), 1
        if tok.kind is TK.IDENT:
            self.advance()
            if self.at(TK.COLONCOLON):
                self.advance()
                variant = self.ident("enum variant")
                return EnumRef(tok.span.merge(variant.span), tok.text, variant.text), 1
            return NameRef(tok.span, tok.text), 1
        if tok.kind is TK.LPAREN:
            self.advance()
            inner, depth = self._parse_ternary(if_ok, False)
            rp = self.expect(TK.RPAREN)
            if depth + 1 > MAX_EXPR_DEPTH:  # a pair of parentheses is one level
                raise self._too_deep(tok.span.merge(rp.span))
            return inner, depth + 1
        if tok.kind is TK.KW_IF and if_ok:
            self.advance()
            cond, d1 = self._parse_ternary(False, False)
            self.expect(TK.KW_THEN)
            then, d2 = self._parse_ternary(True, False)
            self.expect(TK.KW_ELSE)
            els, d3 = self._parse_ternary(True, False)
            return self._checked(IfExpr(tok.span.merge(els.span), cond, then, els),
                                 1 + max(d1, d2, d3))
        self.fail("an expression")


# the item keyword -> its Parser method, called with the construct kind
_ITEM_PARSERS = {
    TK.KW_PARAM: Parser._parse_param,
    TK.KW_PORT: Parser._parse_port,
    TK.KW_REG: Parser._parse_reg,
    TK.KW_LET: Parser._parse_let,
    TK.KW_COMB: Parser._parse_comb,
    TK.KW_SEQ: Parser._parse_seq,
    TK.KW_INST: Parser._parse_inst,
    TK.KW_ASSERT: Parser._parse_assert,
    TK.KW_COVER: Parser._parse_cover,
    TK.KW_GENERATE_FOR: Parser._parse_generate_for,
    TK.KW_GENERATE_IF: Parser._parse_generate_if,
    TK.KW_ENUM: Parser._parse_enum,
    TK.KW_KIND: Parser._parse_kind,
    TK.KW_STATE: Parser._parse_state,
    TK.KW_DEFAULT: Parser._parse_default,
    TK.KW_STAGE: Parser._parse_stage,
    TK.KW_STALL: Parser._parse_stall,
    TK.KW_FLUSH: Parser._parse_flush,
}


def verify_endings(unit: SourceUnit) -> None:
    """Re-validate opener/closer pairing on a (possibly programmatically
    built) AST. The parser enforces this during parse; this is the
    structural re-check for trees that did not come from the parser."""

    def check(kind: str, name: str, end_kind: str, end_name: str, span: Span) -> None:
        if end_kind != kind or end_name != name:
            raise CompileError(err(
                "E_END_MISMATCH",
                f"`{kind} {name}` closed by `end {end_kind} {end_name}`",
                span))

    def walk_items(items: list[Item]) -> None:
        for item in items:
            if isinstance(item, StateDecl):
                check("state", item.name, "state", item.end_name, item.span)
            elif isinstance(item, StageDecl):
                check("stage", item.name, "stage", item.end_name, item.span)
                walk_items(item.items)
            elif isinstance(item, EnumDecl):
                check("enum", item.name, "enum", item.end_name, item.span)
            elif isinstance(item, GenerateFor):
                walk_items(item.items)
            elif isinstance(item, GenerateIf):
                walk_items(item.then_items)
                if item.else_items is not None:
                    walk_items(item.else_items)

    for c in unit.constructs:
        check(c.kind, c.name, c.end_kind, c.end_name, c.span)
        walk_items(c.items)


def parse(src: SourceFile, tokens: list[Token]) -> SourceUnit:
    return Parser(src, tokens).parse_unit()


def parse_source(text: str, file_name: str) -> tuple[SourceFile, SourceUnit]:
    src, tokens = lex(text, file_name)
    return src, parse(src, tokens)
