#include "click/parser.hpp"

#include <gtest/gtest.h>

#include "click/elements_basic.hpp"
#include "click/elements_io.hpp"
#include "sim/machine.hpp"

namespace pp::click {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() { register_standard_elements(registry_); }

  std::optional<std::string> parse(std::string_view text) {
    router_ = std::make_unique<Router>(machine_, 0, 0, 1);
    return parse_config(text, registry_, *router_);
  }

  sim::Machine machine_;
  Registry registry_;
  std::unique_ptr<Router> router_;
};

TEST_F(ParserTest, DeclarationAndChain) {
  const auto err = parse(R"(
    c :: Counter;
    d :: Discard;
    c -> d;
  )");
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(router_->find("c"), nullptr);
  EXPECT_NE(router_->find("d"), nullptr);
}

TEST_F(ParserTest, DeclarationWithArgs) {
  const auto err = parse("src :: FromDevice(RANDOM, BYTES 64);");
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(router_->find("src")->class_name(), "FromDevice");
}

TEST_F(ParserTest, PortSyntax) {
  const auto err = parse(R"(
    chk :: CheckIPHeader;
    good :: Counter;
    bad :: Discard;
    chk -> good -> Discard;
    chk [1] -> bad;
  )");
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_TRUE(router_->find("chk")->output_connected(1));
}

TEST_F(ParserTest, InputPortSyntax) {
  const auto err = parse(R"(
    a :: Counter;
    q :: Queue(16);
    a -> [0] q;
  )");
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST_F(ParserTest, AnonymousInlineElements) {
  const auto err = parse("c :: Counter; c -> Counter() -> Discard;");
  ASSERT_FALSE(err.has_value()) << *err;
  // Two Counters exist: the named one plus an anonymous one.
  int counters = 0;
  for (const auto& e : router_->elements()) {
    counters += e->class_name() == "Counter" ? 1 : 0;
  }
  EXPECT_EQ(counters, 2);
}

TEST_F(ParserTest, CommentsIgnored) {
  const auto err = parse(R"(
    // line comment
    c :: Counter; /* block
    comment */ d :: Discard;
    c -> d;  // trailing
  )");
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST_F(ParserTest, UnknownClassErrors) {
  const auto err = parse("x :: NoSuchThing;");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("NoSuchThing"), std::string::npos);
}

TEST_F(ParserTest, UnknownElementInChainErrors) {
  const auto err = parse("ghost -> Discard;");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("ghost"), std::string::npos);
}

TEST_F(ParserTest, DuplicateNameErrors) {
  const auto err = parse("a :: Counter; a :: Discard;");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate"), std::string::npos);
}

TEST_F(ParserTest, ErrorsCarryLineNumbers) {
  const auto err = parse("c :: Counter;\n\nx :: Bogus;");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("line 3"), std::string::npos) << *err;
}

TEST_F(ParserTest, BadPortErrors) {
  const auto err = parse("c :: Counter; d :: Discard; c [7] -> d;");
  EXPECT_TRUE(err.has_value());
}

TEST_F(ParserTest, ArgumentsWithNestedCommas) {
  const auto err = parse("src :: FromDevice(RANDOM, BYTES 64, BUFS 8); src -> Discard;");
  ASSERT_FALSE(err.has_value()) << *err;
  ASSERT_FALSE(router_->initialize().has_value());  // configure runs here
  // The third comma-separated argument reached configure().
  auto* src = dynamic_cast<FromDevice*>(router_->find("src"));
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->pool()->available(), 8U);
}

TEST_F(ParserTest, EmptyConfigIsFine) {
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("  \n // nothing \n").has_value());
}

}  // namespace
}  // namespace pp::click
