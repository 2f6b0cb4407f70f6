"""A parser for a practical subset of the WebAssembly text format (WAT).

The binary toolkit's counterpart to ``wat2wasm``: linear-style WAT (named
or indexed functions, plain instruction sequences — the style the spec's
core tests and most disassemblers emit) is parsed into a :class:`Module`.
Folded expressions are not supported; block/loop/if are written in linear
form with explicit ``end``.

Supported grammar (per module field)::

    (module
      (import "m" "n" (func $f (param i32 i64) (result f64)))
      (import "m" "mem" (memory 1 4))
      (memory 1 4)
      (table 3 funcref)
      (global $g (mut i32) (i32.const 0))
      (func $name (export "name") (param $x i32) (result i32)
        (local $tmp f64)
        get_local $x
        i32.const 1
        i32.add)
      (elem (i32.const 0) $f $g)
      (data (i32.const 8) "bytes\\00")
      (export "name" (func $name))
      (start $name))

Both paper-era mnemonics (``get_local``) and current ones (``local.get``)
are accepted; immediates may reference ``$names`` or indices.
"""

from __future__ import annotations

from . import opcodes
from .errors import WasmError
from .module import (BrTable, DataSegment, ElemSegment, Export, Function,
                     Global, Import, Instr, MemArg, Module)
from .types import (BYTE_TO_VALTYPE, FuncType, GlobalType, Limits, MemoryType,
                    TableType, ValType)

#: current-spec mnemonics accepted as aliases of the paper-era table
_MNEMONIC_ALIASES = {
    "local.get": "get_local", "local.set": "set_local",
    "local.tee": "tee_local", "global.get": "get_global",
    "global.set": "set_global",
}


class WatError(WasmError):
    pass


# -- s-expression reader --------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif text.startswith(";;", i):
            end = text.find("\n", i)
            i = n if end == -1 else end
        elif text.startswith("(;", i):
            end = text.find(";)", i)
            if end == -1:
                raise WatError("unterminated block comment")
            i = end + 2
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise WatError("unterminated string")
            tokens.append(text[i:j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in ' \t\r\n();"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _parse_sexpr(tokens: list[str], pos: int) -> tuple[object, int]:
    if pos == len(tokens):
        raise WatError("unexpected end of input")
    token = tokens[pos]
    if token == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse_sexpr(tokens, pos)
            items.append(item)
        if pos == len(tokens):
            raise WatError("unclosed '('")
        return items, pos + 1
    if token == ")":
        raise WatError("unexpected ')'")
    return token, pos + 1


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_ESCAPES = {"n": 10, "t": 9, "r": 13, '"': 34, "'": 39, "\\": 92}


def _unescape(literal: str) -> bytes:
    body = literal[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            digits = body[i + 1:i + 3]
            if len(digits) == 2 and _HEX_DIGITS.issuperset(digits):
                out.append(int(digits, 16))
                i += 3
                continue
            nxt = body[i + 1]
            if nxt not in _ESCAPES:
                raise WatError(f"unknown string escape '\\{nxt}'")
            out.append(_ESCAPES[nxt])
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def _name(literal) -> str:
    """An import or export name: a quoted string, decoded as UTF-8."""
    if not isinstance(literal, str) or not literal.startswith('"'):
        raise WatError(f"expected a quoted name, got {literal!r}")
    try:
        return _unescape(literal).decode()
    except UnicodeDecodeError:
        raise WatError(f"name {literal} is not valid UTF-8") from None


def _fields(items: list, count: int, what: str) -> None:
    """Refuse a module field with fewer than ``count`` items."""
    if len(items) < count:
        raise WatError(f"({what} ...) needs at least {count} field(s), "
                       f"got {len(items)}")


def _int(token, base: int = 10) -> int:
    """An integer literal (``base=0`` also reads ``0x`` hex)."""
    try:
        return int(token, base)
    except (TypeError, ValueError):
        raise WatError(f"invalid integer literal {token!r}") from None


def _float(token) -> float:
    try:
        return float(token)
    except (TypeError, ValueError):
        raise WatError(f"invalid float literal {token!r}") from None


_VALTYPES = {t.value: t for t in BYTE_TO_VALTYPE.values()}


def _valtype(token: str) -> ValType:
    try:
        return _VALTYPES[token]
    except KeyError:
        raise WatError(f"unknown value type {token!r}") from None


class _Names:
    """Resolves $names / numeric indices in one index space."""

    def __init__(self, what: str):
        self.what = what
        self.by_name: dict[str, int] = {}
        self.count = 0

    def declare(self, name: str | None) -> int:
        idx = self.count
        if name is not None:
            if name in self.by_name:
                raise WatError(f"duplicate {self.what} name {name}")
            self.by_name[name] = idx
        self.count += 1
        return idx

    def resolve(self, token: str) -> int:
        if token.startswith("$"):
            try:
                return self.by_name[token]
            except KeyError:
                raise WatError(f"unknown {self.what} {token!r}") from None
        return _int(token)


class _WatParser:
    def __init__(self, text: str):
        tokens = _tokenize(text)
        sexpr, pos = _parse_sexpr(tokens, 0)
        if pos != len(tokens):
            raise WatError("trailing tokens after module")
        if not isinstance(sexpr, list) or not sexpr or sexpr[0] != "module":
            raise WatError("expected (module ...)")
        self.fields = sexpr[1:]
        self.module = Module()
        self.funcs = _Names("function")
        self.globals = _Names("global")
        self._pending_funcs: list[tuple[list, int]] = []

    def parse(self) -> Module:
        if self.fields and isinstance(self.fields[0], str):
            self.module.name = self.fields.pop(0).lstrip("$")
        # pass 1: declarations (so forward references resolve)
        for field in self.fields:
            self._declare(field)
        # pass 2: bodies and initializers
        for field, func_decl_idx in self._pending_funcs:
            self._parse_func_body(field, func_decl_idx)
        return self.module

    # -- pass 1 -----------------------------------------------------------------

    def _declare(self, field) -> None:
        if not isinstance(field, list) or not field:
            raise WatError(f"unexpected module field {field!r}")
        kind = field[0]
        handler = getattr(self, f"_declare_{kind}", None)
        if handler is None:
            raise WatError(f"unsupported module field ({kind} ...)")
        handler(field[1:])

    def _take_name(self, items: list) -> str | None:
        if items and isinstance(items[0], str) and items[0].startswith("$"):
            return items.pop(0)
        return None

    def _parse_signature(self, items: list) -> tuple[FuncType, list[str | None]]:
        params: list[ValType] = []
        param_names: list[str | None] = []
        results: list[ValType] = []
        rest = []
        in_signature = True  # only LEADING (param)/(result) lists belong to
        # the function type; later ones are part of the body (if/call_indirect)
        for item in items:
            is_param = (in_signature and isinstance(item, list) and item
                        and item[0] == "param")
            is_result = (in_signature and isinstance(item, list) and item
                         and item[0] == "result")
            if is_param:
                body = item[1:]
                if body and isinstance(body[0], str) and body[0].startswith("$"):
                    param_names.append(body[0])
                    params.append(_valtype(body[1]))
                else:
                    for t in body:
                        params.append(_valtype(t))
                        param_names.append(None)
            elif is_result:
                results.extend(_valtype(t) for t in item[1:])
            else:
                in_signature = False
                rest.append(item)
        items[:] = rest
        return FuncType(tuple(params), tuple(results)), param_names

    def _declare_import(self, items: list) -> None:
        _fields(items, 3, "import")
        module_name = _name(items[0])
        item_name = _name(items[1])
        desc = items[2]
        if not isinstance(desc, list) or not desc:
            raise WatError(f"expected an import descriptor, got {desc!r}")
        if desc[0] == "func":
            body = desc[1:]
            name = self._take_name(body)
            functype, _ = self._parse_signature(body)
            self.module.imports.append(
                Import(module_name, item_name, self.module.add_type(functype)))
            self.funcs.declare(name)
        elif desc[0] == "memory":
            self.module.imports.append(
                Import(module_name, item_name,
                       MemoryType(self._limits(desc[1:]))))
        elif desc[0] == "table":
            self.module.imports.append(
                Import(module_name, item_name,
                       TableType(self._limits(desc[1:-1] or desc[1:]))))
        elif desc[0] == "global":
            body = desc[1:]
            self._take_name(body)
            self.module.imports.append(
                Import(module_name, item_name, self._globaltype(body[0])))
            self.globals.declare(None)
        else:
            raise WatError(f"unsupported import kind {desc[0]}")

    def _limits(self, items: list) -> Limits:
        numbers = [int(i) for i in items if isinstance(i, str) and
                   not i.startswith("$") and i.isdigit()]
        if not numbers:
            raise WatError("limits need a minimum size")
        if len(numbers) == 1:
            return Limits(numbers[0])
        return Limits(numbers[0], numbers[1])

    def _globaltype(self, spec) -> GlobalType:
        if isinstance(spec, list) and spec[:1] == ["mut"]:
            _fields(spec[1:], 1, "mut")
            return GlobalType(_valtype(spec[1]), mutable=True)
        return GlobalType(_valtype(spec), mutable=False)

    def _declare_func(self, items: list) -> None:
        if any(isinstance(i, list) and i and i[0] == "import" for i in items):
            raise WatError("inline function imports are not supported")
        name = self._take_name(items)
        exports = [i for i in items
                   if isinstance(i, list) and i and i[0] == "export"]
        items = [i for i in items if i not in exports]
        func_idx = self.funcs.declare(name)
        functype, param_names = self._parse_signature(items)
        function = Function(type_idx=self.module.add_type(functype),
                            name=name.lstrip("$") if name else None)
        self.module.functions.append(function)
        for export in exports:
            _fields(export[1:], 1, "export")
            self.module.exports.append(Export(_name(export[1]), "func", func_idx))
        self._pending_funcs.append(
            ([items, functype, param_names], len(self.module.functions) - 1))

    def _declare_memory(self, items: list) -> None:
        self._take_name(items)
        self.module.memories.append(MemoryType(self._limits(items)))

    def _declare_table(self, items: list) -> None:
        self._take_name(items)
        if items and items[-1] == "funcref":
            items = items[:-1]
        self.module.tables.append(TableType(self._limits(items)))

    def _declare_global(self, items: list) -> None:
        name = self._take_name(items)
        _fields(items, 2, "global")
        globaltype = self._globaltype(items[0])
        init_expr = items[1]
        init = [self._const_instr(init_expr)]
        self.module.globals.append(Global(globaltype, init))
        self.globals.declare(name)

    def _declare_export(self, items: list) -> None:
        _fields(items, 2, "export")
        export_name = _name(items[0])
        desc = items[1]
        if not isinstance(desc, list) or len(desc) != 2:
            raise WatError(f"expected an export descriptor, got {desc!r}")
        if desc[0] == "func":
            idx = self.funcs.resolve(desc[1])
            self.module.exports.append(Export(export_name, "func", idx))
        elif desc[0] == "memory":
            self.module.exports.append(Export(export_name, "memory",
                                              _int(desc[1])))
        elif desc[0] == "global":
            self.module.exports.append(
                Export(export_name, "global", self.globals.resolve(desc[1])))
        else:
            raise WatError(f"unsupported export kind {desc[0]}")

    def _declare_start(self, items: list) -> None:
        _fields(items, 1, "start")
        self.module.start = self.funcs.resolve(items[0])

    def _declare_elem(self, items: list) -> None:
        _fields(items, 1, "elem")
        offset = self._const_instr(items[0])
        func_idxs = [self.funcs.resolve(i) for i in items[1:]]
        self.module.elements.append(ElemSegment([offset], func_idxs))

    def _declare_data(self, items: list) -> None:
        _fields(items, 1, "data")
        offset = self._const_instr(items[0])
        payload = b"".join(_unescape(i) for i in items[1:])
        self.module.data.append(DataSegment([offset], payload))

    def _const_instr(self, expr) -> Instr:
        if not isinstance(expr, list) or len(expr) != 2:
            raise WatError(f"expected a constant expression, got {expr!r}")
        op, literal = expr
        if not op.endswith(".const"):
            raise WatError(f"unsupported initializer {op}")
        value = _float(literal) if op.startswith("f") else _int(literal, 0)
        return Instr(op, value=value)

    # -- pass 2: function bodies ---------------------------------------------------

    def _parse_func_body(self, parts, defined_idx: int) -> None:
        items, functype, param_names = parts
        function = self.module.functions[defined_idx]
        locals_names = _Names("local")
        for pname in param_names:
            locals_names.declare(pname)
        body_tokens: list = []
        for item in items:
            if isinstance(item, list) and item and item[0] == "local":
                rest = item[1:]
                if rest and rest[0].startswith("$"):
                    locals_names.declare(rest[0])
                    function.locals.append(_valtype(rest[1]))
                else:
                    for t in rest:
                        locals_names.declare(None)
                        function.locals.append(_valtype(t))
            else:
                body_tokens.append(item)
        function.body = self._parse_instrs(body_tokens, locals_names)
        function.body.append(Instr("end"))

    def _parse_instrs(self, tokens: list, locals_names: _Names) -> list[Instr]:
        instrs: list[Instr] = []
        labels: list[str | None] = []
        cursor = 0
        while cursor < len(tokens):
            token = tokens[cursor]
            if isinstance(token, list):
                raise WatError(f"folded expressions are not supported: {token!r}")
            mnemonic = _MNEMONIC_ALIASES.get(token, token)
            op = opcodes.BY_NAME.get(mnemonic)
            if op is None:
                raise WatError(f"unknown instruction {token!r}")
            cursor += 1

            def next_token() -> str:
                nonlocal cursor
                if cursor == len(tokens):
                    raise WatError(f"{token} is missing its immediate")
                value = tokens[cursor]
                cursor += 1
                return value

            def peek_is_label() -> bool:
                return cursor < len(tokens) and isinstance(tokens[cursor], str) \
                    and tokens[cursor].startswith("$")

            imm = op.imm
            if imm is opcodes.Imm.NONE:
                if mnemonic in ("else", "end") and labels:
                    if mnemonic == "end":
                        labels.pop()
                instrs.append(Instr(mnemonic))
            elif imm is opcodes.Imm.BLOCKTYPE:
                label = next_token() if peek_is_label() else None
                labels.append(label)
                blocktype = None
                if cursor < len(tokens) and isinstance(tokens[cursor], list) \
                        and tokens[cursor][0] == "result":
                    blocktype = _valtype(next_token()[1])
                instrs.append(Instr(mnemonic, blocktype=blocktype))
            elif imm is opcodes.Imm.LABEL:
                instrs.append(Instr(mnemonic,
                                    label=self._label(next_token(), labels)))
            elif imm is opcodes.Imm.BR_TABLE:
                targets = []
                while cursor < len(tokens) and isinstance(tokens[cursor], str) \
                        and (tokens[cursor].lstrip("$").isdigit()
                             or tokens[cursor].startswith("$")):
                    targets.append(self._label(next_token(), labels))
                instrs.append(Instr(mnemonic,
                                    br_table=BrTable(tuple(targets[:-1]),
                                                     targets[-1])))
            elif imm is opcodes.Imm.FUNC_IDX:
                instrs.append(Instr(mnemonic, idx=self.funcs.resolve(next_token())))
            elif imm is opcodes.Imm.TYPE_IDX:
                # accept: a bare index, (type n), or inline (param..)(result..)
                spec_items: list = []
                while cursor < len(tokens) and isinstance(tokens[cursor], list) \
                        and tokens[cursor] and tokens[cursor][0] in (
                            "type", "param", "result"):
                    spec_items.append(next_token())
                if spec_items:
                    type_idx = None
                    params: list[ValType] = []
                    results: list[ValType] = []
                    for spec in spec_items:
                        if spec[0] == "type":
                            type_idx = _int(spec[1])
                        elif spec[0] == "param":
                            params.extend(_valtype(t) for t in spec[1:])
                        else:
                            results.extend(_valtype(t) for t in spec[1:])
                    if type_idx is None:
                        type_idx = self.module.add_type(
                            FuncType(tuple(params), tuple(results)))
                else:
                    type_idx = _int(next_token())
                instrs.append(Instr(mnemonic, idx=type_idx))
            elif imm is opcodes.Imm.LOCAL_IDX:
                instrs.append(Instr(mnemonic,
                                    idx=locals_names.resolve(next_token())))
            elif imm is opcodes.Imm.GLOBAL_IDX:
                instrs.append(Instr(mnemonic,
                                    idx=self.globals.resolve(next_token())))
            elif imm is opcodes.Imm.MEMARG:
                align = 0
                offset = 0
                while cursor < len(tokens) and isinstance(tokens[cursor], str) \
                        and "=" in tokens[cursor]:
                    key, _, value = next_token().partition("=")
                    if key == "offset":
                        offset = _int(value, 0)
                    elif key == "align":
                        align = _int(value, 0).bit_length() - 1
                instrs.append(Instr(mnemonic, memarg=MemArg(align, offset)))
            elif imm is opcodes.Imm.MEM_IDX:
                instrs.append(Instr(mnemonic))
            elif imm in (opcodes.Imm.CONST_I32, opcodes.Imm.CONST_I64):
                instrs.append(Instr(mnemonic, value=_int(next_token(), 0)))
            else:  # float consts
                instrs.append(Instr(mnemonic, value=_float(next_token())))
        return instrs

    def _label(self, token: str, labels: list[str | None]) -> int:
        if token.startswith("$"):
            for depth, name in enumerate(reversed(labels)):
                if name == token:
                    return depth
            raise WatError(f"unknown label {token!r}")
        return _int(token)


def parse_wat(text: str) -> Module:
    """Parse linear-style WAT text into a :class:`Module`.

    Malformed text (an unclosed ``(``, a bad numeric literal or string
    escape, a missing immediate) raises :class:`WatError`.
    """
    return _WatParser(text).parse()
