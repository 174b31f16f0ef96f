"""The whole-directory output comparison that CI runs across worker counts."""

import shutil

import pytest

from compare_outputs import differences

FILES = {
    "trace.csv": "algo,seed,iter,smse,sum_rate\nsaris,0,0,2.0,30.5\n",
    "runs.csv": "algo,final_sum_rate,wall_time_s\nsaris,33.0,0.034\n",
    "summary.csv": "algo,mean_rate,mean_time_s\nsaris,33.0,0.034\n",
    "metadata.json": '{"command": "run"}\n',
}


def write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


@pytest.mark.parametrize(
    "name, text, found",
    [
        ("runs.csv", "algo,final_sum_rate,wall_time_s\nsaris,33.0,9.9\n", []),
        ("summary.csv", "algo,mean_rate,mean_time_s\nsaris,33.0,9.9\n", []),
        (
            "runs.csv",
            "algo,final_sum_rate,wall_time_s\nsaris,33.1,0.034\n",
            ["runs.csv differs outside wall_time_s"],
        ),
        (
            "summary.csv",
            "algo,mean_rate,mean_time_s\nsaris,33.1,0.034\n",
            ["summary.csv differs outside mean_time_s"],
        ),
        ("trace.csv", "algo,seed,iter,smse,sum_rate\nsaris,0,0,2.0,30.50\n", ["trace.csv differs"]),
        ("metadata.json", '{"command": "sweep"}\n', ["metadata.json differs"]),
    ],
    ids=["runs-time", "summary-time", "runs-rate", "summary-rate", "trace", "metadata"],
)
def test_only_wall_time_columns_may_differ(tmp_path, name, text, found):
    first = write(tmp_path / "a", FILES)
    second = write(tmp_path / "b", {**FILES, name: text})
    assert differences(first, second) == found


def test_file_sets_must_match(tmp_path):
    first = write(tmp_path / "a", FILES)
    second = tmp_path / "b"
    shutil.copytree(first, second)
    (second / "summary.csv").unlink()
    assert differences(first, second)
    assert differences(second, first)


@pytest.mark.parametrize("header", [True, False], ids=["header-only", "no-bytes"])
@pytest.mark.parametrize("name", ["trace.csv", "runs.csv", "summary.csv"])
def test_an_empty_csv_fails(tmp_path, name, header):
    files = {**FILES, name: FILES[name].splitlines(keepends=True)[0] if header else ""}
    first, second = write(tmp_path / "a", files), write(tmp_path / "b", files)
    assert differences(first, second) == [f"{name} has no rows"]
