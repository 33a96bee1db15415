"""Mini-C: a tiny C-like language running on the simulated machine.

The paper's software framework is a *compiler plugin* (1.5 K lines on
top of LLVM's ASan pass) plus a runtime: stack protection requires
recompiling with the plugin, heap protection needs only the allocator.
This package makes that story executable.  Programs are built from a
small AST (functions, scalar locals, stack arrays, heap allocation,
loops, conditionals, array indexing, libc calls) and interpreted
against a :class:`~repro.defenses.base.Defense`:

* entering a function runs the defense's prologue — the REST plugin
  arms redzones around the declared arrays, ASan poisons shadow,
  plain does nothing (that *is* the compiler plugin);
* array indexing compiles to raw address arithmetic, exactly as C
  does — no bounds checks — so the program's bugs flow through to the
  defense/hardware;
* ``memcpy``/``strcpy`` route through the defense's libc layer (the
  interception point).

Listing 1 of the paper is shipped as a program
(:func:`repro.lang.programs.heartbleed_program`) and in
``examples/listing1_minic.py``.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.lang.ast": (
            "ArrayDecl",
            "Assign",
            "BinOp",
            "Call",
            "Const",
            "Expr",
            "ExprStatement",
            "For",
            "Free",
            "Function",
            "If",
            "Load",
            "Malloc",
            "MemcpyStmt",
            "Program",
            "Return",
            "Statement",
            "Store",
            "Var",
            "While",
        ),
        "repro.lang.format": ("format_program",),
        "repro.lang.interp": ("Interpreter", "MiniCError"),
        "repro.lang.parser": ("ParseError", "parse"),
        "repro.lang.programs": ("heartbleed_program", "sum_array_program"),
        "repro.lang.measure": ("measure_program",),
    },
)
