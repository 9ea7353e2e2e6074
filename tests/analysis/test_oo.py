"""OO design-security metric tests."""

import pytest

from repro.analysis.oo import _inheritance_edges, measure_codebase
from repro.lang import Codebase, SourceFile


JAVA_PAIR = {
    "Account.java": """\
public class Account {
    public int balance;
    private String owner;

    public Account(String owner) {
        this.owner = owner;
    }

    public void deposit(int amount) {
        balance = balance + amount;
        audit(amount);
    }

    private void audit(int amount) {
        Logger.log(amount);
    }
}
""",
    "Teller.java": """\
public class Teller extends Worker {
    private Account current;

    public void process(int amount) {
        deposit(amount);
    }
}
""",
    "Worker.java": """\
public class Worker {
    protected int id;

    public void clock() {
        id = id + 1;
    }
}
""",
}

PY_CLASSES = {
    "model.py": """\
class Base:
    def setup(self):
        self.visible = 1
        self._hidden = 2


class Child(Base):
    def run(self):
        self.setup()
        self.result = 3
        return self.result
""",
}


class TestJava:
    @pytest.fixture(scope="class")
    def metrics(self):
        return measure_codebase(Codebase.from_sources("bank", JAVA_PAIR))

    def test_class_count(self, metrics):
        assert metrics.n_classes == 3

    def test_method_distribution(self, metrics):
        # Account: ctor + deposit + audit; Teller: process; Worker: clock.
        assert metrics.max_methods_per_class == 3
        assert metrics.mean_methods_per_class == pytest.approx(5 / 3)

    def test_public_method_fraction(self, metrics):
        # audit() is private; the other four are public -> 4/5.
        assert metrics.public_method_fraction == pytest.approx(4 / 5)

    def test_public_field_fraction(self, metrics):
        # balance public; owner, current private; id protected -> 1/4.
        assert metrics.public_field_fraction == pytest.approx(1 / 4)

    def test_coupling(self, metrics):
        # Teller.process calls deposit (owned by Account) -> coupling 1.
        assert metrics.max_coupling == 1

    def test_inheritance_depth(self, metrics):
        # Teller extends Worker -> depth 1.
        assert metrics.max_inheritance_depth == 1

    def test_accessibility_combined(self, metrics):
        expected = (4 / 5 + 1 / 4) / 2
        assert metrics.accessibility == pytest.approx(expected)


class TestPython:
    @pytest.fixture(scope="class")
    def metrics(self):
        return measure_codebase(Codebase.from_sources("py", PY_CLASSES))

    def test_class_count(self, metrics):
        assert metrics.n_classes == 2

    def test_attribute_visibility(self, metrics):
        # visible, result public; _hidden private -> 2/3.
        assert metrics.public_field_fraction == pytest.approx(2 / 3)

    def test_inheritance(self, metrics):
        assert metrics.max_inheritance_depth == 1

    def test_coupling_cross_class_call(self, metrics):
        # Child.run calls setup (owned by Base).
        assert metrics.max_coupling == 1


class TestDegenerate:
    def test_pure_c_all_zero(self, c_source):
        metrics = measure_codebase(Codebase("c", [c_source]))
        assert metrics.n_classes == 0
        assert metrics.accessibility == 0.0

    def test_empty(self):
        assert measure_codebase(Codebase("e")).n_classes == 0


class TestInheritanceEdges:
    """Child -> parent edges straight from the class headers."""

    @pytest.mark.parametrize("text", [
        "struct node { int v; };\nint main(void) { return 0; }\n",
        "/* class Foo : Bar */\nint klass = 0;\nint subclass(int x);\n",
    ])
    def test_c_file_has_none(self, text):
        assert _inheritance_edges(SourceFile("t.c", text)) == {}

    def test_java(self):
        text = ("public class Teller extends Worker { }\n"
                "class B extends A {}\nclass C implements I {}\n")
        assert _inheritance_edges(SourceFile("T.java", text)) == {
            "Teller": "Worker", "B": "A"}

    def test_cpp(self):
        text = ("class Base { };\nclass Derived : public Base { };\n"
                "class D2 : private virtual Mid {};\nstruct S : Base {};\n")
        assert _inheritance_edges(SourceFile("t.cpp", text)) == {
            "Derived": "Base", "D2": "Mid"}

    def test_python(self):
        text = ("class A(Base):\n    pass\nclass B:\n    pass\n"
                "class C(object, Mixin):\n    pass\n")
        assert _inheritance_edges(SourceFile("t.py", text)) == {
            "A": "Base", "C": "object"}
