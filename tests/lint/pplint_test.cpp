// pplint's own test: every rule must trip on its fixture (positive cases)
// and the real tree must be clean (negative case), so the linter cannot
// silently stop catching what it exists to catch. Fixture snippets live in
// tests/lint/fixtures/ and are linted under fake src/** paths — rule scoping
// is part of what is under test.
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/fault.hpp"
#include "pplint/lint.hpp"

namespace pp::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(PP_SOURCE_DIR) + "/tests/lint/fixtures/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::unordered_set<std::string> real_sites() {
  std::unordered_set<std::string> sites;
  for (const FaultSiteInfo& s : known_fault_sites()) sites.insert(s.name);
  return sites;
}

std::multiset<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::multiset<std::string> rules;
  for (const Diagnostic& d : diags) rules.insert(d.rule);
  return rules;
}

TEST(PplintRules, GetenvFixtureTrips) {
  const auto diags = lint_text("src/core/example.cpp", fixture("getenv_violation.snippet"),
                               real_sites());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "getenv");
  EXPECT_EQ(diags[0].line, 8);
  EXPECT_NE(diags[0].message.find("SessionOptions::from_env"), std::string::npos);
}

TEST(PplintRules, GetenvAllowedOnlyInOptionsCpp) {
  const std::string text = fixture("getenv_violation.snippet");
  EXPECT_TRUE(lint_text("src/api/options.cpp", text, real_sites()).empty())
      << "the audited parse itself must be exempt";
  EXPECT_FALSE(lint_text("src/base/example.cpp", text, real_sites()).empty());
  EXPECT_TRUE(lint_text("tools/example.cpp", text, real_sites()).empty())
      << "the rule scopes to src/**";
}

TEST(PplintRules, LayeringFixtureTripsBelowApiOnly) {
  const std::string text = fixture("layering_violation.snippet");
  const auto diags = lint_text("src/core/example.cpp", text, real_sites());
  ASSERT_EQ(diags.size(), 1u) << "the api/options.hpp include, not the comment";
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].line, 6);
  for (const char* lower : {"src/base/x.cpp", "src/sim/x.hpp", "src/model/x.cpp",
                            "src/click/x.cpp", "src/apps/x.cpp", "src/net/x.cpp"}) {
    EXPECT_EQ(rules_of(lint_text(lower, text, real_sites())).count("layering"), 1u) << lower;
  }
  EXPECT_TRUE(lint_text("src/api/example.cpp", text, real_sites()).empty())
      << "api/ may include itself";
  EXPECT_TRUE(lint_text("tools/example.cpp", text, real_sites()).empty())
      << "the rule scopes to the layers below api/";

  const std::string allowed =
      "#include \"api/json.hpp\"  // pplint: allow(layering) — test exception\n";
  EXPECT_TRUE(lint_text("src/core/example.cpp", allowed, real_sites()).empty());
}

TEST(PplintRules, NondeterminismFixtureTripsPerSource) {
  const auto diags = lint_text("src/sim/example.cpp", fixture("nondet_violation.snippet"),
                               real_sites());
  ASSERT_EQ(diags.size(), 3u) << "random_device, rand(), and ::now( lines";
  for (const Diagnostic& d : diags) EXPECT_EQ(d.rule, "nondeterminism");
  // Scope: the same text is legal outside the simulation layers.
  EXPECT_TRUE(
      lint_text("src/api/example.cpp", fixture("nondet_violation.snippet"), real_sites())
          .empty());
  EXPECT_FALSE(
      lint_text("src/model/example.cpp", fixture("nondet_violation.snippet"), real_sites())
          .empty());
  EXPECT_FALSE(
      lint_text("src/core/example.cpp", fixture("nondet_violation.snippet"), real_sites())
          .empty());
}

TEST(PplintRules, NoabortFixtureTrips) {
  const auto diags = lint_text("src/api/session.cpp", fixture("noabort_violation.snippet"),
                               real_sites());
  const auto rules = rules_of(diags);
  EXPECT_EQ(rules.count("noabort"), 2u) << "PP_CHECK line and std::abort line";
  // The PP_CHECK mention in the fixture's comment must not add a third.
  // Scope: PP_CHECK stays legal in the lowering/spec layer.
  EXPECT_TRUE(lint_text("src/api/spec.cpp", fixture("noabort_violation.snippet"), real_sites())
                  .empty());
}

TEST(PplintRules, FaultSiteFixtureTripsOnUnregisteredLiteralsOnly) {
  const auto diags = lint_text("src/core/example.cpp", fixture("faultsite_violation.snippet"),
                               real_sites());
  ASSERT_EQ(diags.size(), 2u) << "two unregistered sites; \"store.ro\" is registered";
  EXPECT_EQ(diags[0].rule, "faultsite");
  EXPECT_NE(diags[0].message.find("store.not_a_registered_site"), std::string::npos);
  EXPECT_NE(diags[1].message.find("store.also_not_registered"), std::string::npos);
}

TEST(PplintRules, SuppressionSilencesAndStaleAllowTrips) {
  const std::string suppressed =
      "#include <cstdlib>\n"
      "int f() { return std::getenv(\"X\") != nullptr; }  "
      "// pplint: allow(getenv) — test exception\n";
  EXPECT_TRUE(lint_text("src/core/example.cpp", suppressed, real_sites()).empty());

  const auto stale = lint_text("src/core/example.cpp", fixture("stale_allow.snippet"),
                               real_sites());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "allow");
  EXPECT_NE(stale[0].message.find("stale suppression"), std::string::npos);
}

TEST(PplintRules, DiagnosticFormatIsGccStyle) {
  const Diagnostic d{"src/core/example.cpp", 42, "getenv", "boom"};
  EXPECT_EQ(format(d), "src/core/example.cpp:42: [getenv] boom");
}

TEST(PplintHeaders, StandaloneCompileRule) {
  const std::string dir = std::string(PP_SOURCE_DIR) + "/tests/lint/fixtures";
  EXPECT_TRUE(check_header_standalone(dir + "/header_self_contained.hpp", {dir},
                                      PP_CXX_COMPILER)
                  .empty());
  const auto diags = check_header_standalone(dir + "/header_not_self_contained.hpp", {dir},
                                             PP_CXX_COMPILER);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "header");
  EXPECT_NE(diags[0].message.find("not self-contained"), std::string::npos);
}

TEST(PplintTree, RealTreeIsCleanOnTextRules) {
  // The headers rule runs in the dedicated lint_pplint_tree CTest (it spawns
  // one compile per header); the in-process pass locks the text rules.
  Options opt;
  opt.root = PP_SOURCE_DIR;
  opt.check_headers = false;
  const auto diags = lint_tree(opt);
  for (const Diagnostic& d : diags) ADD_FAILURE() << format(d);
}

}  // namespace
}  // namespace pp::lint
