"""tools/gen_sporadic_data.py, loaded once as a module.

The subgroup searches only that tool runs (a normal closure, the normal
subgroup of index r, the backtracking setwise stabilizer) are defined there;
the tests call them from here as references.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_sporadic_data.py"

_spec = importlib.util.spec_from_file_location("gen_sporadic_data", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

normal_closure = tool.normal_closure
normal_subgroup_of_index = tool.normal_subgroup_of_index
setwise_stabilizer = tool.setwise_stabilizer
