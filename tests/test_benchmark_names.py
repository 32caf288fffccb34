"""The names through which the benchmark harness (``perfbench/``) reaches the
package. The harness wraps these functions from outside, looks each one up by
its module and name, and reads some arguments by position; a rename or a moved
parameter does not fail a run there, it only drops the metrics that need the
name. These tests pin each name and the parameters the harness reads."""

import inspect
import types

import pytest

from tijepa import cli, core, dataprep, encoders, numerics, trainer


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


@pytest.mark.parametrize("module, name", [
    (trainer, "adamw_step"),  # its return ends a step, in the untraced step clock too
    (trainer, "save_checkpoint"),
    (numerics, "backward"),
    (numerics, "active_tape"),
    (numerics, "_record"),
    (numerics, "_check_finite"),
    (dataprep, "load_manifest"),
    (cli, "dispatch"),
])
def test_function_is_defined_at_module_level_under_its_name(module, name):
    # the harness wraps only functions that the module itself defines
    fn = vars(module).get(name)
    assert isinstance(fn, types.FunctionType)
    assert fn.__module__ == module.__name__
    assert fn.__name__ == name


def test_active_tape_takes_no_arguments():
    inspect.signature(numerics.active_tape).bind()


def test_save_checkpoint_takes_the_path_second():
    assert parameters(trainer.save_checkpoint) == ["state", "path"]


def test_text_encode_takes_token_ids_first():
    encode = vars(encoders.TextEncoder)["encode"]
    assert isinstance(encode, types.FunctionType)
    assert parameters(encode)[:2] == ["self", "token_ids"]


def test_image_encode_takes_images_first_and_visible_by_keyword():
    encode = vars(encoders.ImageEncoder)["encode"]
    assert isinstance(encode, types.FunctionType)
    params = inspect.signature(encode).parameters
    assert list(params)[:3] == ["self", "images", "visible"]
    assert params["visible"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_fusion_module_is_called_through_its_own_call_method():
    # an `encode` or `predict` beside `__call__` would rename its metrics
    members = vars(core.FusionModule)
    assert isinstance(members.get("__call__"), types.FunctionType)
    assert "encode" not in members and "predict" not in members
    assert callable(members.get("named_parameters"))
