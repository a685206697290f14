"""The bytecode virtual machine substrate.

A stack machine with closures and templates in the style of the Scheme 48
VM [32]: a *template* is a code vector plus a literal frame; object code is
first built as an abstract representation (:mod:`repro.vm.fragments`, the
constructors a compilator uses) and then *relocated* — linearized, labels
resolved, literals interned — into an executable template by
:mod:`repro.vm.assembler`, exactly the two-stage shape §6.1 describes.
"""

from repro.vm.assembler import assemble
from repro.vm.disasm import disassemble
from repro.vm.fragments import (
    EMPTY,
    Fragment,
    Instr,
    Label,
    Lit,
    Seq,
    attach_label,
    instruction,
    instruction_using_label,
    make_label,
    sequentially,
)
from repro.vm.instructions import Op, opcode_name
from repro.vm.machine import Machine, VmClosure, VMError
from repro.vm.profile import (
    TemplateIdent,
    VMProfile,
    call_named_profiled,
    call_profiled,
)
from repro.vm.template import Template
from repro.vm.verify import (
    VerificationError,
    VerifyReport,
    Violation,
    ViolationKind,
    check_template,
    verify_template,
    verify_templates,
)

__all__ = [
    "EMPTY",
    "Fragment",
    "Instr",
    "Label",
    "Lit",
    "Machine",
    "Op",
    "Seq",
    "Template",
    "TemplateIdent",
    "VerificationError",
    "VerifyReport",
    "Violation",
    "ViolationKind",
    "VMError",
    "VMProfile",
    "VmClosure",
    "assemble",
    "attach_label",
    "call_named_profiled",
    "call_profiled",
    "check_template",
    "disassemble",
    "instruction",
    "instruction_using_label",
    "make_label",
    "opcode_name",
    "sequentially",
    "verify_template",
    "verify_templates",
]
