type t =
  | Alloc
  | Pass
  | Lint
  | Build
  | Liveness
  | Coalesce
  | Scan
  | Simplify
  | Color
  | Spill_elect
  | Spill_insert
  | Rewrite
  | Verify

let all =
  [ Alloc; Pass; Lint; Build; Liveness; Coalesce; Scan; Simplify; Color;
    Spill_elect; Spill_insert; Rewrite; Verify ]

let count = List.length all

let index = function
  | Alloc -> 0
  | Pass -> 1
  | Lint -> 2
  | Build -> 3
  | Liveness -> 4
  | Coalesce -> 5
  | Scan -> 6
  | Simplify -> 7
  | Color -> 8
  | Spill_elect -> 9
  | Spill_insert -> 10
  | Rewrite -> 11
  | Verify -> 12

let name = function
  | Alloc -> "alloc"
  | Pass -> "pass"
  | Lint -> "lint"
  | Build -> "build"
  | Liveness -> "liveness"
  | Coalesce -> "coalesce"
  | Scan -> "scan"
  | Simplify -> "simplify"
  | Color -> "color"
  | Spill_elect -> "spill-elect"
  | Spill_insert -> "spill-insert"
  | Rewrite -> "rewrite"
  | Verify -> "verify"

let of_name s = List.find_opt (fun p -> name p = s) all
