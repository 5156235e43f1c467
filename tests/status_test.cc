#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace neurodb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "bad input");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::Corruption("page 7 torn");
  EXPECT_EQ(s.ToString(), "Corruption: page 7 torn");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

Status FailsThrough() {
  NEURODB_RETURN_NOT_OK(Status::IOError("disk gone"));
  return Status::OK();
}

Status Passes() {
  NEURODB_RETURN_NOT_OK(Status::OK());
  return Status::InvalidArgument("reached");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(FailsThrough().IsIOError());
  EXPECT_TRUE(Passes().IsInvalidArgument());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Status UseAssignOrReturn(int v, int* out) {
  NEURODB_ASSIGN_OR_RETURN(*out, Half(v));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseAssignOrReturn(3, &out).IsInvalidArgument());
}

}  // namespace
}  // namespace neurodb
