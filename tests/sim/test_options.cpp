/** @file Command-line option parser tests. */

#include <gtest/gtest.h>

#include "sim/options.hpp"

namespace tpnet {
namespace {

struct ParserFixture : ::testing::Test
{
    ParserFixture()
        : parser("prog", "test program")
    {
        parser.addFlag("flag", "a flag", &flag);
        parser.addInt("count", "an int", &count);
        parser.addDouble("rate", "a double", &rate);
        parser.addString("name", "a string", &name);
        parser.addUint64("seed", "a u64", &seed);
    }

    bool
    run(std::initializer_list<const char *> args, std::string *err = nullptr)
    {
        std::vector<const char *> argv{"prog"};
        argv.insert(argv.end(), args.begin(), args.end());
        return parser.parse(static_cast<int>(argv.size()), argv.data(),
                            err);
    }

    OptionParser parser;
    bool flag = false;
    int count = 0;
    double rate = 0.0;
    std::string name;
    std::uint64_t seed = 0;
};

TEST_F(ParserFixture, EmptyIsFine)
{
    EXPECT_TRUE(run({}));
    EXPECT_FALSE(parser.helpRequested());
}

TEST_F(ParserFixture, SpaceSeparatedValues)
{
    EXPECT_TRUE(run({"--count", "42", "--rate", "0.25", "--name", "tp"}));
    EXPECT_EQ(count, 42);
    EXPECT_DOUBLE_EQ(rate, 0.25);
    EXPECT_EQ(name, "tp");
}

TEST_F(ParserFixture, EqualsSeparatedValues)
{
    EXPECT_TRUE(run({"--count=7", "--seed=123456789012345"}));
    EXPECT_EQ(count, 7);
    EXPECT_EQ(seed, 123456789012345ull);
}

TEST_F(ParserFixture, FlagForms)
{
    EXPECT_TRUE(run({"--flag"}));
    EXPECT_TRUE(flag);
    EXPECT_TRUE(run({"--flag=0"}));
    EXPECT_FALSE(flag);
    EXPECT_TRUE(run({"--flag=true"}));
    EXPECT_TRUE(flag);
}

TEST_F(ParserFixture, NegativeNumbers)
{
    EXPECT_TRUE(run({"--count", "-3", "--rate", "-0.5"}));
    EXPECT_EQ(count, -3);
    EXPECT_DOUBLE_EQ(rate, -0.5);
}

TEST_F(ParserFixture, UnknownOptionRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--bogus", "1"}, &err));
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST_F(ParserFixture, MissingValueRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count"}, &err));
    EXPECT_NE(err.find("missing value"), std::string::npos);
}

TEST_F(ParserFixture, BadValueRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count", "abc"}, &err));
    EXPECT_NE(err.find("bad value"), std::string::npos);
}

TEST_F(ParserFixture, TrailingCharactersRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count", "8abc"}, &err));
    EXPECT_NE(err.find("bad value '8abc' for --count"), std::string::npos);
    EXPECT_FALSE(run({"--rate", "0.1x"}, &err));
    EXPECT_NE(err.find("bad value '0.1x' for --rate"), std::string::npos);
    EXPECT_FALSE(run({"--count", " 8"}));
    EXPECT_FALSE(run({"--rate", "nan"}));
    EXPECT_EQ(count, 0);
    EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST_F(ParserFixture, FractionForIntRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--count", "3.7"}, &err));
    EXPECT_NE(err.find("bad value '3.7' for --count"), std::string::npos);
    EXPECT_EQ(count, 0);
}

TEST_F(ParserFixture, NegativeUnsignedRejected)
{
    std::string err;
    EXPECT_FALSE(run({"--seed", "-1"}, &err));
    EXPECT_NE(err.find("bad value '-1' for --seed"), std::string::npos);
    EXPECT_EQ(seed, 0u);
    EXPECT_TRUE(run({"--seed", "18446744073709551615"}));
    EXPECT_EQ(seed, 18446744073709551615ull);
    EXPECT_FALSE(run({"--seed", "18446744073709551616"}));
}

TEST_F(ParserFixture, GivenTracksTheCommandLine)
{
    EXPECT_TRUE(run({"--count", "0"}));
    EXPECT_TRUE(parser.given("count"));
    EXPECT_FALSE(parser.given("rate"));
}

TEST(OptionParserDeath, DuplicateRegistrationIsFatal)
{
    OptionParser parser("prog", "test program");
    int a = 0;
    int b = 0;
    parser.addInt("x", "first", &a);
    EXPECT_DEATH(parser.addInt("x", "second", &b), "registered twice");
}

TEST(OptionParserDeath, TableRowCollidingWithToolOptionIsFatal)
{
    OptionParser parser("prog", "test program");
    std::uint64_t seed = 0;
    parser.addUint64("seed", "campaign seed", &seed);
    ConfigOptions rows;
    EXPECT_DEATH(rows.bind(parser, {"k", "seed"}), "registered twice");
}

TEST_F(ParserFixture, PositionalRejected)
{
    std::string err;
    EXPECT_FALSE(run({"stray"}, &err));
    EXPECT_NE(err.find("unexpected argument"), std::string::npos);
}

TEST_F(ParserFixture, HelpRequested)
{
    EXPECT_TRUE(run({"--help"}));
    EXPECT_TRUE(parser.helpRequested());
}

TEST_F(ParserFixture, UsageListsOptions)
{
    const std::string usage = parser.usage();
    EXPECT_NE(usage.find("--flag"), std::string::npos);
    EXPECT_NE(usage.find("--count <int>"), std::string::npos);
    EXPECT_NE(usage.find("a double"), std::string::npos);
}

} // namespace
} // namespace tpnet
