// .sim transistor netlist reader/writer: round trips, defaults, errors.
#include "netlist/sim_format.hpp"

#include <gtest/gtest.h>

#include "switch/logic_sim.hpp"
#include "test_util.hpp"

namespace fmossim {
namespace {

using testing::driveAll;
using testing::driveRails;

const char* kInverter = R"(| nMOS inverter
input in
d out Vdd out
n in out Gnd
)";

TEST(SimFormatTest, ParsesInverterAndSimulates) {
  const Network net = parseSimNetlist(kInverter);
  EXPECT_EQ(net.numTransistors(), 2u);
  EXPECT_TRUE(net.isInput(net.nodeByName("in")));
  EXPECT_TRUE(net.isInput(net.nodeByName("Vdd")));
  EXPECT_FALSE(net.isInput(net.nodeByName("out")));

  LogicSimulator sim(net);
  driveRails(sim);
  driveAll(sim, {{"in", '0'}});
  EXPECT_NODE(sim, "out", '1');
  driveAll(sim, {{"in", '1'}});
  EXPECT_NODE(sim, "out", '0');
}

TEST(SimFormatTest, DefaultStrengthsFollowConvention) {
  const Network net = parseSimNetlist(kInverter);
  // d device: strength index 1; n device: strength index 2.
  const auto& domain = net.domain();
  bool sawD = false, sawN = false;
  for (const TransId t : net.allTransistors()) {
    const auto& tr = net.transistor(t);
    if (tr.type == TransistorType::DType) {
      EXPECT_EQ(tr.strength, domain.strengthLevel(1));
      sawD = true;
    } else {
      EXPECT_EQ(tr.strength, domain.strengthLevel(2));
      sawN = true;
    }
  }
  EXPECT_TRUE(sawD && sawN);
}

TEST(SimFormatTest, NodeSizeAndExplicitStrength) {
  const Network net = parseSimNetlist(
      "input clk\n"
      "node bus 2\n"
      "n clk Vdd bus 3\n");
  EXPECT_EQ(net.node(net.nodeByName("bus")).size, 2);
  EXPECT_EQ(net.transistor(TransId(0)).strength, net.domain().strengthLevel(3));
}

TEST(SimFormatTest, AcceptsClassicESpellingAndComments) {
  const Network net = parseSimNetlist(
      "# hash comment\n"
      "| pipe comment\n"
      "e g a b\n");
  EXPECT_EQ(net.transistor(TransId(0)).type, TransistorType::NType);
}

TEST(SimFormatTest, ImplicitNodesDefaultToStorageSize1) {
  const Network net = parseSimNetlist("n g a b\n");
  EXPECT_FALSE(net.isInput(net.nodeByName("a")));
  EXPECT_EQ(net.node(net.nodeByName("a")).size, 1);
  EXPECT_FALSE(net.isInput(net.nodeByName("g")));
}

TEST(SimFormatTest, ErrorsCarryLineNumbers) {
  try {
    parseSimNetlist("input a\nbogus x y z\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SimFormatTest, RejectsMalformedInput) {
  EXPECT_THROW(parseSimNetlist("input\n"), Error);             // no name
  EXPECT_THROW(parseSimNetlist("node a\n"), Error);            // no size
  EXPECT_THROW(parseSimNetlist("node a zero\n"), Error);       // bad size
  EXPECT_THROW(parseSimNetlist("n g a\n"), Error);             // missing drain
  EXPECT_THROW(parseSimNetlist("n g a a\n"), Error);           // self loop
  EXPECT_THROW(parseSimNetlist("n g a b 9\n"), Error);         // bad strength
  EXPECT_THROW(parseSimNetlist("input a\ninput a\n"), Error);  // duplicate
  EXPECT_THROW(parseSimNetlist("| only comments\n"), Error);   // no devices
}

TEST(SimFormatTest, RejectsNonStrictIntegers) {
  // stoi used to accept these by parsing the leading digits and silently
  // dropping the rest.
  EXPECT_THROW(parseSimNetlist("node a 2x\nn g a b\n"), Error);
  EXPECT_THROW(parseSimNetlist("node a 1.5\nn g a b\n"), Error);
  EXPECT_THROW(parseSimNetlist("n g a b 2x\n"), Error);
  EXPECT_THROW(parseSimNetlist("node a -1\nn g a b\n"), Error);
  EXPECT_THROW(parseSimNetlist("n g a b 99999999999999\n"), Error);
  // The 100000 cap is exact: 1000009 used to pass a bound checked before
  // the final multiply and only failed later, in the builder.
  for (const char* text : {"node a 1000009\nn g a b\n", "n g a b 1000009\n"}) {
    try {
      parseSimNetlist(text);
      FAIL() << "expected Error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'1000009' out of range"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SimFormatTest, OutOfRangeDeclarationsCarryLineNumbers) {
  // Node size beyond the domain's kappa levels used to abort with no line
  // context; strength already went through the device try/catch.
  try {
    parseSimNetlist("input ok\nnode fat 7\nn ok fat Gnd\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  try {
    parseSimNetlist("input ok\nn ok a b 9\n");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(SimFormatTest, WriteReadRoundTrip) {
  const Network net = parseSimNetlist(
      "input in clk\n"
      "node bus 2\n"
      "d out Vdd out 1\n"
      "n in out Gnd 2\n"
      "n clk out bus 2\n");
  const std::string text = writeSimNetlist(net);
  const Network again = parseSimNetlist(text);
  EXPECT_EQ(again.numTransistors(), net.numTransistors());
  EXPECT_EQ(again.numNodes(), net.numNodes());
  EXPECT_EQ(again.node(again.nodeByName("bus")).size, 2);
  // Behaviour must match too.
  LogicSimulator a(net), bSim(again);
  driveRails(a);
  driveRails(bSim);
  for (const char in : {'0', '1'}) {
    driveAll(a, {{"in", in}, {"clk", '1'}});
    driveAll(bSim, {{"in", in}, {"clk", '1'}});
    EXPECT_EQ(testing::read(a, "out"), testing::read(bSim, "out"));
    EXPECT_EQ(testing::read(a, "bus"), testing::read(bSim, "bus"));
  }
}

TEST(SimFormatTest, FaultDevicesEmittedAsComments) {
  NetworkBuilder b;
  const NodeId x = b.addNode("x");
  const NodeId y = b.addNode("y");
  b.addShortFaultDevice(x, y);
  const NodeId g = b.addInput("g");
  b.addTransistor(TransistorType::NType, 2, g, x, y);
  const Network net = b.build();
  const std::string text = writeSimNetlist(net);
  EXPECT_NE(text.find("| fault-device (short)"), std::string::npos);
  const Network again = parseSimNetlist(text);
  EXPECT_EQ(again.numFaultDevices(), 0u);  // comments are not devices
  EXPECT_EQ(again.numTransistors(), 1u);
}

}  // namespace
}  // namespace fmossim
