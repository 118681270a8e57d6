#include "common/status.h"

#include <gtest/gtest.h>

namespace bcast {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactoryEqualsDefault) {
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "invalid argument: bad knob");
}

TEST(StatusTest, AllNamedConstructorsProduceTheirCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::OK());
}

TEST(StatusTest, CopyIsCheapAndIndependent) {
  Status a = Status::Internal("boom");
  Status b = a;  // shares rep
  EXPECT_EQ(a, b);
  a = Status::OK();
  EXPECT_TRUE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "boom");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value(), 41);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r(7);
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, MutableAccess) {
  Result<std::string> r(std::string("a"));
  r.value() += "b";
  EXPECT_EQ(*r, "ab");
  r->push_back('c');
  EXPECT_EQ(*r, "abc");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  std::unique_ptr<int> v = std::move(r).value();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, AccessingErrorValueDies) {
  Result<int> r(Status::Internal("no value"));
  EXPECT_DEATH({ (void)r.value(); }, "errored Result");
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  auto fails = []() { return Status::OutOfRange("deep"); };
  auto outer = [&]() -> Status {
    BCAST_RETURN_IF_ERROR(fails());
    return Status::Internal("unreached");
  };
  EXPECT_EQ(outer().code(), StatusCode::kOutOfRange);
}

TEST(StatusMacroTest, ReturnIfErrorPassesOk) {
  auto succeeds = []() { return Status::OK(); };
  auto outer = [&]() -> Status {
    BCAST_RETURN_IF_ERROR(succeeds());
    return Status::Internal("reached");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(StatusCodeTest, NamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "invalid argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "unimplemented");
}

}  // namespace
}  // namespace bcast
