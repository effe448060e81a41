// Package uisim simulates the slice of the Android UI framework that QoE
// Doctor interacts with: a live view hierarchy ("UI layout tree"), input
// event dispatch, and a frame-based drawing model that separates the moment
// the tree changes (t_ui) from the moment the change is visible on screen
// (t_screen) — the distinction behind the paper's accuracy analysis (Fig. 4
// and Fig. 6).
//
// Apps build trees out of View nodes and mutate them in response to input
// and network events. The Instrumentation type plays the role of Android's
// InstrumentationTestCase API: it runs in the same process as the app,
// injects input events, and parses the layout tree.
package uisim

import "fmt"

// Common Android view class names used by the simulated apps.
const (
	ClassView        = "android.view.View"
	ClassButton      = "android.widget.Button"
	ClassTextView    = "android.widget.TextView"
	ClassEditText    = "android.widget.EditText"
	ClassListView    = "android.widget.ListView"
	ClassWebView     = "android.webkit.WebView"
	ClassProgressBar = "android.widget.ProgressBar"
	ClassScrollView  = "android.widget.ScrollView"
	ClassImageView   = "android.widget.ImageView"
	ClassVideoView   = "android.widget.VideoView"
)

// View is one node of the layout tree. Mutations must go through the setter
// methods so the owning screen can track invalidation. Class, ID and Desc
// are immutable once the view is attached: writing them bypasses
// Screen.version, so parses cached for that version would go stale.
type View struct {
	Class string // Android class name
	ID    string // resource id, e.g. "com.facebook.katana:id/feed_list"
	Desc  string // developer content description
	text  string
	vis   bool

	children []*View
	parent   *View
	screen   *Screen

	// Input handlers, set by the app.
	OnClick  func()
	OnScroll func(dy int)
	OnText   func(s string)
	OnEnter  func()
}

// NewView constructs a detached visible view.
func NewView(class, id, desc string) *View {
	return &View{Class: class, ID: id, Desc: desc, vis: true}
}

// Text returns the view's current text.
func (v *View) Text() string { return v.text }

// Visible reports the view's own visibility flag (not ancestors').
func (v *View) Visible() bool { return v.vis }

// Shown reports whether the view and all its ancestors are visible.
func (v *View) Shown() bool {
	for n := v; n != nil; n = n.parent {
		if !n.vis {
			return false
		}
	}
	return true
}

// SetText mutates the view's text and invalidates the screen.
func (v *View) SetText(s string) {
	if v.text == s {
		return
	}
	v.text = s
	v.invalidate()
}

// SetVisible mutates visibility and invalidates the screen.
func (v *View) SetVisible(on bool) {
	if v.vis == on {
		return
	}
	v.vis = on
	v.invalidate()
}

// AddChild appends a child view.
func (v *View) AddChild(c *View) {
	v.insertChild(len(v.children), c)
}

// PrependChild inserts a child at the front (new list items).
func (v *View) PrependChild(c *View) {
	v.insertChild(0, c)
}

func (v *View) insertChild(i int, c *View) {
	if c.parent != nil {
		panic(fmt.Sprintf("uisim: view %s already attached", c.ID))
	}
	v.children = append(v.children, nil)
	copy(v.children[i+1:], v.children[i:])
	v.children[i] = c
	c.parent = v
	c.setScreen(v.screen)
	v.invalidate()
}

// RemoveChild detaches a child view.
func (v *View) RemoveChild(c *View) {
	for i, x := range v.children {
		if x == c {
			v.children = append(v.children[:i], v.children[i+1:]...)
			c.parent = nil
			c.setScreen(nil)
			v.invalidate()
			return
		}
	}
}

// ClearChildren detaches all children.
func (v *View) ClearChildren() {
	for _, c := range v.children {
		c.parent = nil
		c.setScreen(nil)
	}
	v.children = nil
	v.invalidate()
}

// Children returns the child slice (callers must not mutate it).
func (v *View) Children() []*View { return v.children }

// Parent returns the parent view, nil for roots.
func (v *View) Parent() *View { return v.parent }

func (v *View) setScreen(s *Screen) {
	v.screen = s
	for _, c := range v.children {
		c.setScreen(s)
	}
}

func (v *View) invalidate() {
	if v.screen != nil {
		v.screen.invalidate()
	}
}

// Signature identifies a view the way the paper's View signature does
// (§4.1): class name, view ID, and developer description — and explicitly
// not screen coordinates, so replays work across devices. Empty fields are
// wildcards.
type Signature struct {
	Class string
	ID    string
	Desc  string
}

func (s Signature) String() string {
	return fmt.Sprintf("{class=%q id=%q desc=%q}", s.Class, s.ID, s.Desc)
}

// Matches reports whether the view matches the signature.
func (v *View) Matches(s Signature) bool {
	if s.Class != "" && v.Class != s.Class {
		return false
	}
	if s.ID != "" && v.ID != s.ID {
		return false
	}
	if s.Desc != "" && v.Desc != s.Desc {
		return false
	}
	return true
}

// Find returns the first view in DFS order matching sig, or nil.
func (v *View) Find(sig Signature) *View {
	if v.Matches(sig) {
		return v
	}
	for _, c := range v.children {
		if m := c.Find(sig); m != nil {
			return m
		}
	}
	return nil
}

// FindAll returns every view matching sig in DFS order.
func (v *View) FindAll(sig Signature) []*View {
	var out []*View
	v.walk(func(n *View) {
		if n.Matches(sig) {
			out = append(out, n)
		}
	})
	return out
}

func (v *View) walk(fn func(*View)) {
	fn(v)
	for _, c := range v.children {
		c.walk(fn)
	}
}
