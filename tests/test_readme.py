import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(fixture_mnist_dir, capsys):
    # the public example must only name functions the package still exports
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert 'load_mnist("data/mnist")' in code
    code = code.replace('load_mnist("data/mnist")', f"load_mnist({str(fixture_mnist_dir)!r})")
    exec(compile(code, str(README), "exec"), {})
    f1, f2 = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < f1 < 1.0
    assert 0.0 <= f2 <= 1.0
