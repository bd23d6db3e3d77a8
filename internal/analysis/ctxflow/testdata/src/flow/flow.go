// Package flow is a fixture for the context-threading rules: no fresh
// roots while a ctx is in scope, no exported function dropping its ctx.
package flow

import "context"

func do(ctx context.Context, s string) error {
	_ = s
	return ctx.Err()
}

func plain(s string) string { return s }

// Publish threads its ctx: the good case.
func Publish(ctx context.Context, s string) error {
	return do(ctx, s)
}

// Republish drops the caller's deadline with a fresh root.
func Republish(ctx context.Context) error {
	_ = ctx
	return do(context.Background(), "x") // want `context.Background\(\) minted while a context.Context parameter is in scope`
}

// Retry does the same with TODO.
func Retry(ctx context.Context) error {
	_ = ctx
	return do(context.TODO(), "y") // want `context.TODO\(\) minted while a context.Context parameter is in scope`
}

// Root has no ctx parameter, so minting a root is legitimate.
func Root() error {
	return do(context.Background(), "z")
}

// Spawn's literal inherits the enclosing ctx scope.
func Spawn(ctx context.Context) func() error {
	_ = ctx
	return func() error {
		return do(context.Background(), "w") // want `context.Background\(\) minted while a context.Context parameter is in scope`
	}
}

// Handler's literal brings its own ctx into scope.
func Handler() func(context.Context) error {
	return func(ctx context.Context) error {
		return do(context.Background(), "v") // want `context.Background\(\) minted while a context.Context parameter is in scope`
	}
}

type Client struct {
	base context.Context
}

// Drop accepts a ctx, never uses it, and hands a different context to a
// context-accepting callee: the silent deadline break.
func (c *Client) Drop(ctx context.Context, s string) error { // want `exported Drop drops its ctx parameter`
	return do(c.base, s)
}

// Pure takes a ctx it does not use, but calls nothing that accepts one;
// there is no thread to break.
func Pure(ctx context.Context, n int) int {
	_ = plain("k")
	return n * 2
}

// drop is unexported: internal helpers may stage their ctx use.
func (c *Client) drop(ctx context.Context, s string) error {
	return do(c.base, s)
}

// Blank discards its ctx visibly, which is allowed.
func Blank(_ context.Context, s string) string {
	return plain(s)
}
