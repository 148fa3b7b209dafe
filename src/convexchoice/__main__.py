"""`python -m convexchoice`: the command-line interface, as `convexchoice`."""

from .cli import main

if __name__ == "__main__":
    main()
