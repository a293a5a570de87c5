"""Reference outputs from the per-step interpreter.

The oracle runs every program on ``Machine(block_engine=False)`` on
both ISAs, independent of the block and chain tiers the workloads
exercise, and requires both ISAs to agree.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.registry import get_app
from repro import compiler
from repro.core.migration import exe_path_for, install_program
from repro.isa import get_isa
from repro.vm import Machine

ARCHES = ("x86_64", "aarch64")
OTHER = {"x86_64": "aarch64", "aarch64": "x86_64"}


class Reference:
    """One program's expected stdout and per-ISA instruction totals."""

    def __init__(self, stdout: str, instructions: Dict[str, int]):
        self.stdout = stdout
        self.instructions = instructions


def app_source(app: str) -> str:
    return get_app(app).source("small")


def reference(program) -> Reference:
    outputs = {}
    instructions = {}
    for arch in ARCHES:
        machine = Machine(get_isa(arch), block_engine=False)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for(program.name, arch))
        code = machine.run_process(process)
        if code != 0:
            raise RuntimeError(f"reference {program.name}/{arch} exited "
                               f"{code}")
        outputs[arch] = process.stdout()
        instructions[arch] = process.instr_total
    if outputs["x86_64"] != outputs["aarch64"]:
        raise RuntimeError(f"reference {program.name}: ISAs disagree")
    return Reference(outputs["x86_64"], instructions)


def compile_apps(apps) -> Dict[str, Tuple[object, Reference]]:
    """Compile each app's small source and compute its reference."""
    out = {}
    for app in apps:
        # through the module attribute, which the traced run wraps
        program = compiler.compile_source(app_source(app), app)
        out[app] = (program, reference(program))
    return out


def output_from_journal(journal) -> str:
    """The guest stdout a journal recorded, rebuilt from its print
    syscalls (the same formatting the kernel applies)."""
    from repro import sysabi
    parts = []
    for _pid, _tid, number, args, _result in journal.syscall_stream():
        if number == sysabi.SYS_PRINT_INT:
            parts.append(f"{args[0]}\n")
        elif number == sysabi.SYS_PRINT_CHAR:
            parts.append(chr(args[0] & 0x10FFFF))
    return "".join(parts)
