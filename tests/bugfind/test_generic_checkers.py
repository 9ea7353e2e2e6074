"""Generic (multi-language) checker tests.

Every case runs twice: through the test-only reference checker for its
rule (``bugfind_reference``), and through the product's one-pass
``generic_checkers.run`` filtered to that rule. The two must report the
same findings, and the case's assertions then hold for both.
"""

from repro.bugfind.generic_checkers import run
from repro.lang import SourceFile
from tests.bugfind import bugfind_reference as ref


def _both(check, rule):
    """``check``'s findings, after requiring ``run`` to agree on ``rule``."""
    def findings(source):
        expected = check(source)
        assert [f for f in run(source) if f.rule == rule] == expected
        return expected
    return findings


check_hardcoded_secret = _both(ref.check_hardcoded_secret, "hardcoded-secret")
check_dynamic_eval = _both(ref.check_dynamic_eval, "dynamic-eval")
check_sql_concatenation = _both(ref.check_sql_concatenation,
                                "sql-concatenation")
check_weak_crypto = _both(ref.check_weak_crypto, "weak-crypto")
check_permissive_mode = _both(ref.check_permissive_mode, "permissive-mode")
check_swallowed_exception = _both(ref.check_swallowed_exception,
                                  "swallowed-exception")
check_unsafe_deserialization = _both(ref.check_unsafe_deserialization,
                                     "unsafe-deserialization")
check_insecure_tempfile = _both(ref.check_insecure_tempfile,
                                "insecure-tempfile")
check_assert_validation = _both(ref.check_assert_validation,
                                "assert-validation")


def py(text):
    return SourceFile("t.py", text)


def c(text):
    return SourceFile("t.c", text)


def java(text):
    return SourceFile("T.java", text)


class TestHardcodedSecret:
    def test_password_literal_flagged(self):
        findings = check_hardcoded_secret(py('password = "hunter2!"'))
        assert len(findings) == 1
        assert findings[0].cwe == 798

    def test_password_from_env_clean(self):
        assert check_hardcoded_secret(py("password = os.getenv('PW')")) == []

    def test_short_literal_ignored(self):
        assert check_hardcoded_secret(py('password = ""')) == []

    def test_api_key_flagged(self):
        assert check_hardcoded_secret(py('api_key = "sk-123456"'))


class TestDynamicEval:
    def test_eval_variable_flagged(self):
        findings = check_dynamic_eval(py("eval(user_expr)"))
        assert len(findings) == 1
        assert findings[0].cwe == 95

    def test_eval_literal_clean(self):
        assert check_dynamic_eval(py('eval("1+1")')) == []


class TestSqlConcatenation:
    def test_concat_flagged(self):
        findings = check_sql_concatenation(
            py('q = "SELECT * FROM users WHERE id=" + uid')
        )
        assert len(findings) == 1
        assert findings[0].cwe == 89

    def test_static_query_clean(self):
        assert check_sql_concatenation(py('q = "SELECT 1"')) == []

    def test_non_sql_concat_clean(self):
        assert check_sql_concatenation(py('msg = "hello " + name')) == []


class TestWeakCrypto:
    def test_md5_flagged(self):
        findings = check_weak_crypto(py("digest = md5(data)"))
        assert len(findings) == 1
        assert findings[0].cwe == 327

    def test_string_algorithm_name(self):
        assert check_weak_crypto(java('Cipher.getInstance("DES");'))

    def test_sha256_clean(self):
        assert check_weak_crypto(py("digest = sha256(data)")) == []


class TestPermissiveMode:
    def test_chmod_777(self):
        findings = check_permissive_mode(c("chmod(path, 0777);"))
        assert len(findings) == 1
        assert findings[0].cwe == 732

    def test_chmod_restrictive_clean(self):
        assert check_permissive_mode(c("chmod(path, 0600);")) == []


class TestSwallowedException:
    def test_empty_catch_java(self):
        findings = check_swallowed_exception(
            java("try { x(); } catch (Exception e) {}")
        )
        assert len(findings) == 1

    def test_python_except_pass(self):
        text = "try:\n    x()\nexcept ValueError:\n    pass\n"
        assert len(check_swallowed_exception(py(text))) == 1

    def test_handled_exception_clean(self):
        text = "try:\n    x()\nexcept ValueError:\n    log()\n"
        assert check_swallowed_exception(py(text)) == []


class TestRunner:
    def test_runs_on_all_languages(self, c_source, py_source, java_source):
        for src in (c_source, py_source, java_source):
            run(src)  # must not raise

    def test_sorted_output(self):
        text = 'password = "topsecret"\neval(x)\n'
        findings = run(py(text))
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestDeserialization:
    def test_pickle_loads_flagged(self):

        findings = check_unsafe_deserialization(py("obj = pickle.loads(blob)"))
        assert len(findings) == 1
        assert findings[0].cwe == 502

    def test_yaml_load_flagged_safe_load_clean(self):

        assert check_unsafe_deserialization(py("cfg = yaml.load(t)"))
        assert check_unsafe_deserialization(py("cfg = yaml.safe_load(t)")) == []

    def test_java_read_object(self):

        findings = check_unsafe_deserialization(
            java("Object o = in.readObject();")
        )
        assert len(findings) == 1


class TestTempfile:
    def test_mktemp_flagged(self):

        findings = check_insecure_tempfile(c("char *t = mktemp(tmpl);"))
        assert len(findings) == 1
        assert findings[0].cwe == 377

    def test_tmp_path_literal_flagged(self):

        assert check_insecure_tempfile(py('path = "/tmp/x.dat"'))

    def test_mkstemp_clean(self):

        assert check_insecure_tempfile(c("int fd = mkstemp(tmpl);")) == []


class TestAssertValidation:
    def test_assert_on_input_flagged(self):

        findings = check_assert_validation(py("assert request.size < 10"))
        assert len(findings) == 1
        assert findings[0].cwe == 617

    def test_assert_on_internal_state_clean(self):

        assert check_assert_validation(py("assert invariant_holds")) == []

    def test_non_python_ignored(self):

        assert check_assert_validation(java("assert request != null;")) == []
